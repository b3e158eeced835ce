/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: CLI flag
 * handling (--csv and each bench's own flags; anything else prints a
 * usage line and exits 2), the duration-bounded measureFor loop,
 * headers that identify the experiment, and an engine cache so a
 * bench constructing several configurations does not re-profile
 * needlessly.
 */

#ifndef HEROSIGN_BENCHUTIL_HH
#define HEROSIGN_BENCHUTIL_HH

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch/sign_request.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "telemetry/histogram.hh"

namespace herosign::bench
{

/** One deterministic signing request per message, for submitMany(). */
inline std::vector<batch::SignRequest>
signRequests(const std::vector<ByteVec> &msgs)
{
    std::vector<batch::SignRequest> reqs(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i)
        reqs[i].message = msgs[i];
    return reqs;
}

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
 * The one duration-bounded measurement loop every bench shares, so
 * every bench row means the same thing: run @p fn in a closed loop
 * for (at least) @p seconds of wall clock, after @p warmup_iters
 * untimed warmup calls. At least one timed iteration always runs, so
 * rates are never divided by zero and a single slow operation still
 * yields its true cost.
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

/**
 * q-quantile (0..1) of @p lat_us, in milliseconds — computed through
 * the telemetry LatencyHistogram so bench tables and the live
 * exporters share one percentile definition (exact-bucket upper
 * bound, never under-reporting, ~3% bucket resolution).
 */
inline double
percentileMs(const std::vector<double> &lat_us, double q)
{
    if (lat_us.empty())
        return 0.0;
    telemetry::LatencyHistogram h(1);
    for (double us : lat_us)
        h.record(us <= 0 ? 0
                         : static_cast<uint64_t>(us * 1000.0 + 0.5));
    return static_cast<double>(h.snapshot().percentile(q)) / 1e6;
}

/**
 * Parsed command-line options: --csv, which every bench takes, plus
 * the bench's own value flags. An unknown flag, a missing value or a
 * bad count prints a usage line and exits 2.
 */
class Options
{
  public:
    bool csv = false;

    /**
     * @param own the bench's own value flags as "--name METAVAR"
     *        (e.g. "--msgs N"); the metavar only feeds the usage line
     */
    static Options
    parse(int argc, char **argv,
          std::initializer_list<const char *> own = {})
    {
        Options o;
        std::string prog = argc > 0 ? argv[0] : "bench";
        o.usage_ = "usage: " + prog.substr(prog.rfind('/') + 1) +
                   " [--csv]";
        for (const char *spec : own)
            o.usage_ += std::string(" [") + spec + "]";
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--csv") {
                o.csv = true;
                continue;
            }
            bool known = false;
            for (const char *spec : own)
                known = known ||
                        a == std::string(spec, std::strcspn(spec, " "));
            if (!known)
                o.fail("unknown flag '" + a + "'");
            if (i + 1 == argc)
                o.fail(a + " expects a value");
            o.values_[a] = argv[++i];
        }
        return o;
    }

    /** Flag @p name as a positive integer, @p fallback if absent. */
    unsigned
    count(const std::string &name, unsigned fallback) const
    {
        const std::string v = text(name);
        if (v.empty())
            return fallback;
        unsigned n = 0;
        auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
        if (ec != std::errc() || p != v.data() + v.size() || n == 0)
            fail(name + " expects a positive integer, got '" + v + "'");
        return n;
    }

    /** Flag @p name's value, or "" if absent. */
    std::string
    text(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? "" : it->second;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::cerr << why << "\n" << usage_ << "\n";
        std::exit(2);
    }

    std::map<std::string, std::string> values_;
    std::string usage_;
};

/** Print the experiment banner and the table (text or CSV). */
inline void
emit(const Options &o, const std::string &title, const TextTable &table,
     const std::string &note = "")
{
    if (o.csv) {
        std::cout << table.renderCsv();
        return;
    }
    std::cout << "== " << title << " ==\n";
    if (!note.empty())
        std::cout << note << "\n";
    std::cout << table.render() << "\n";
}

/** Cache of engines keyed by (set, device, config name). */
class EngineCache
{
  public:
    core::SignEngine &
    get(const sphincs::Params &p, const gpu::DeviceProps &dev,
        const core::EngineConfig &cfg)
    {
        const std::string key = p.name + "/" + dev.name + "/" + cfg.name;
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            it = cache_
                     .emplace(key, std::make_unique<core::SignEngine>(
                                       p, dev, cfg))
                     .first;
        }
        return *it->second;
    }

  private:
    std::map<std::string, std::unique_ptr<core::SignEngine>> cache_;
};

/** KOPS of a kernel at the paper's reference batch of 1024. */
inline double
kernelKops(core::SignEngine &engine, core::KernelKind kind,
           unsigned batch = 1024)
{
    auto timing = engine.kernelTimingAt(kind, batch);
    return batch * 1000.0 / timing.durationUs;
}

} // namespace herosign::bench

#endif // HEROSIGN_BENCHUTIL_HH
