/**
 * @file
 * The benchmark's own arithmetic: percentiles, the tail-percentile
 * rule, and the SLO share. Kept free of library types so the
 * self-test can pin it on known samples.
 */
#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Nearest-rank percentile: the ceil(q * n)-th smallest sample, so a
 * percentile is always a value that was measured. 0 when empty.
 * @param q quantile in (0, 1]
 */
double percentile(std::vector<double> samples, double q);

/** percentile(samples, 0.5). */
double median(std::vector<double> samples);

/**
 * Median over @p chunks consecutive equal-count slices of @p samples
 * (in arrival order) of each slice's q-percentile: one burst of host
 * noise then moves one slice, not the reported value. chunks <= 1
 * is percentile(samples, q); trailing samples that do not fill a
 * slice are left out.
 */
double chunkedPercentile(const std::vector<double> &samples, double q,
                         size_t chunks);

/**
 * Mean of the samples left after dropping the floor(trim * n)
 * smallest and as many largest. Unlike the median it does not jump
 * between the modes of a two-humped distribution, and unlike the
 * plain mean one long stall cannot move it. 0 when empty.
 * @param trim share cut from each end, in [0, 0.5)
 */
double trimmedMean(std::vector<double> samples, double trim);

/** Samples strictly above the nearest-rank q-quantile position. */
size_t samplesBeyond(size_t n, double q);

/**
 * The highest of p99, p90 and p50 that leaves at least ten samples
 * beyond it; 0.5 when even p50 does not (fewer than 20 samples).
 */
double tailQuantile(size_t n);

/** How one request ended, as the benchmark judged it. */
enum class Outcome : uint8_t
{
    Ok,      ///< returned, and the result checked correct
    Wrong,   ///< returned, but the signature or verdict was wrong
    Failed,  ///< the future held an exception
    Refused, ///< submit() threw (admission or shutdown)
};

/** One request of an open- or closed-loop workload. */
struct RequestRecord
{
    bool sign = true;       ///< sign (true) or verify (false)
    int64_t dueNs = 0;      ///< scheduled send time
    int64_t doneNs = 0;     ///< completion stamp (0 when none)
    Outcome outcome = Outcome::Ok;

    double latencyMs() const { return (doneNs - dueNs) / 1e6; }
};

/**
 * Share of @p recs that returned the correct result within their
 * plane's limit, measured from the scheduled send time. Refused,
 * failed and wrong requests count as misses. 0 when empty.
 */
double sloOkFrac(const std::vector<RequestRecord> &recs,
                 double sign_limit_ms, double verify_limit_ms);

/** Latencies (ms) of the Ok records of one plane. */
std::vector<double> okLatenciesMs(const std::vector<RequestRecord> &recs,
                                  bool sign);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
