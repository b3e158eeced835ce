/**
 * @file
 * The one duration-bounded measurement loop the bench binaries share
 * (via bench/bench_util.hh), so every bench row means the same thing:
 * warm up, then run the operation in a closed loop until the time
 * budget elapses and report iterations against the measured wall
 * clock.
 */

#ifndef HEROSIGN_TUNE_MEASURE_HH
#define HEROSIGN_TUNE_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <utility>

namespace herosign::tune
{

/** Outcome of one measureFor() run. */
struct MeasureResult
{
    uint64_t iters = 0; ///< operations completed inside the window
    double wallUs = 0;  ///< measured wall clock of those operations

    /** Operations per second (0 when nothing ran). */
    double
    opsPerSec() const
    {
        return wallUs > 0 ? iters * 1e6 / wallUs : 0.0;
    }
};

/**
 * Run @p fn in a closed loop for (at least) @p seconds of wall clock,
 * after @p warmup_iters untimed warmup calls. At least one timed
 * iteration always runs, so rates are never divided by zero and a
 * single slow operation still yields its true cost.
 */
template <typename Fn>
MeasureResult
measureFor(double seconds, unsigned warmup_iters, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    for (unsigned i = 0; i < warmup_iters; ++i)
        fn();
    MeasureResult r;
    const auto t0 = clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(seconds));
    do {
        fn();
        ++r.iters;
    } while (clock::now() < deadline);
    r.wallUs = std::chrono::duration<double, std::micro>(clock::now() -
                                                         t0)
                   .count();
    return r;
}

} // namespace herosign::tune

#endif // HEROSIGN_TUNE_MEASURE_HH
