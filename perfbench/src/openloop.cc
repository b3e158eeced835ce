#include "openloop.hh"

#include <chrono>
#include <cmath>
#include <random>
#include <thread>

#include "spans.hh"

namespace perfbench
{

std::vector<int64_t>
poissonSchedule(uint64_t seed, size_t count, int64_t duration_ns)
{
    // mt19937_64's output sequence is fixed by the standard (the
    // distributions are not), so the gaps are drawn by hand.
    std::mt19937_64 gen(seed);
    std::vector<double> cum(count + 1);
    double total = 0;
    for (double &c : cum) {
        const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
        total += -std::log1p(-u);
        c = total;
    }
    // count + 1 gaps: the last one runs from the final arrival to the
    // window end, so arrivals are uniform order statistics.
    std::vector<int64_t> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = static_cast<int64_t>(cum[i] / total *
                                      static_cast<double>(duration_ns));
    return out;
}

LoopClock
steadyLoopClock()
{
    return LoopClock{
        nowNs,
        [](int64_t t) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(t)));
        },
    };
}

std::vector<int64_t>
runOpenLoop(const std::vector<int64_t> &due, const LoopClock &clock,
            const std::function<void(size_t, int64_t)> &send)
{
    std::vector<int64_t> lag(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
        int64_t t = clock.now();
        if (t < due[i]) {
            clock.sleepUntil(due[i]);
            t = clock.now();
        }
        lag[i] = t - due[i];
        send(i, due[i]);
    }
    return lag;
}

} // namespace perfbench
