/**
 * @file
 * Open-loop load generation: a seeded Poisson arrival schedule and a
 * sender that dispatches each request at its due time, regardless of
 * how the previous ones fared. Latency is taken from the due time, so
 * a stall in the sender or the host is charged to every request it
 * delayed; how late the sender ran is reported separately as lag.
 */
#ifndef PERFBENCH_OPENLOOP_HH
#define PERFBENCH_OPENLOOP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench
{

/**
 * Offsets (ns) of @p count arrivals of a Poisson process conditioned
 * on exactly @p count arrivals in [0, duration_ns): exponential gaps
 * scaled to the window, ascending. The same seed gives the same
 * schedule, and the count (hence the offered rate) is exact.
 */
std::vector<int64_t> poissonSchedule(uint64_t seed, size_t count,
                                     int64_t duration_ns);

/** The clock the sender runs on (steady_clock in real runs). */
struct LoopClock
{
    std::function<int64_t()> now;
    std::function<void(int64_t)> sleepUntil;
};

/** The real clock: nowNs() and std::this_thread::sleep_until. */
LoopClock steadyLoopClock();

/**
 * Call send(i, due[i]) for each i in order, never before due[i].
 * @return lag per request: when send(i) began minus due[i]
 */
std::vector<int64_t>
runOpenLoop(const std::vector<int64_t> &due, const LoopClock &clock,
            const std::function<void(size_t, int64_t)> &send);

} // namespace perfbench

#endif // PERFBENCH_OPENLOOP_HH
