/**
 * @file
 * Types shared by the workload runners, the per-layer probes and the
 * report: run options, named metrics, and one workload's result.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** One named number with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Ordered metric list; add() keeps insertion order for the report. */
struct Metrics
{
    std::vector<Metric> items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }
    void
    append(const Metrics &other)
    {
        items.insert(items.end(), other.items.begin(), other.items.end());
    }
};

/**
 * The frozen workload definitions (perfbench/workloads.json),
 * flattened to "<workload>.<key>" -> number by run.py.
 */
class Defs
{
  public:
    void set(const std::string &key, double v) { values_[key] = v; }

    /** @throws std::runtime_error when the definition is missing */
    double
    get(const std::string &workload, const std::string &key) const
    {
        auto it = values_.find(workload + "." + key);
        if (it == values_.end())
            throw std::runtime_error("missing workload definition " +
                                     workload + "." + key);
        return it->second;
    }
    const std::map<std::string, double> &all() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

/** What every workload runner receives. */
struct RunContext
{
    const Defs &defs;
    uint64_t seed = 0;
    double seconds = 0;     ///< measured time for this run
    unsigned threads = 1;   ///< load/check threads (<= nproc)
    SpanLog &spans;         ///< enabled only in traced runs
};

/** One workload run: end-to-end numbers, layer counters, checks. */
struct RunResult
{
    Metrics endToEnd;   ///< the BENCHMARK.json end_to_end set
    Metrics detail;     ///< issue-named extras (per step), run record
    Metrics layer;      ///< per-layer counters this workload exports
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< failed + refused + wrong outputs
    std::vector<std::string> flags; ///< anything a reader must see
    /** Cost per unit of work (ms) compared across traced/untraced. */
    double headlineCostMs = 0;
};

/**
 * Workload names. BENCHMARK.json bounds batch-128f and
 * interactive-256f; serve-mixed runs when named, and in every traced
 * run for the service-layer counters.
 */
inline const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "batch-128f", "serve-mixed", "interactive-256f"};
    return names;
}

RunResult runBatch128f(const RunContext &ctx);
RunResult runServeMixed(const RunContext &ctx);
RunResult runInteractive256f(const RunContext &ctx);

/** Per-layer probes: hash, sphincs, batch groups, telemetry. */
Metrics runProbes(SpanLog &spans, std::vector<std::string> &flags);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
