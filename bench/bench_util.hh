/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: CLI flag
 * handling (--csv), headers that identify the experiment, and an
 * engine cache so a bench constructing several configurations does
 * not re-profile needlessly.
 */

#ifndef HEROSIGN_BENCH_BENCH_UTIL_HH
#define HEROSIGN_BENCH_BENCH_UTIL_HH

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch/sign_request.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "core/engine.hh"
#include "telemetry/histogram.hh"
#include "tune/measure.hh"
#include "tune/profile.hh"

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

/**
 * The shared duration-bounded measurement loop: run @p fn repeatedly
 * for ~seconds after a warmup, returning iterations and wall time.
 * This is the same helper the autotuner's TrialRunner times trials
 * with, so bench rows and tuning trials share one timing definition.
 */
using tune::measureFor;
using tune::MeasureResult;

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

/** Parsed command-line options shared by all bench binaries. */
struct Options
{
    bool csv = false;
    unsigned iters = 0; ///< --iters N; 0 = the bench's own default
    std::string jsonPath; ///< --json <path>; empty = no JSON output

    static Options
    parse(int argc, char **argv)
    {
        Options o;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--csv") {
                o.csv = true;
            } else if (a == "--json") {
                // Consume the value only when it is not another flag,
                // matching the --iters convention below.
                const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
                if (v && std::strncmp(v, "--", 2) != 0) {
                    o.jsonPath = v;
                    ++i;
                } else {
                    std::cerr << "--json expects a file path; "
                                 "ignoring\n";
                }
            } else if (a == "--iters") {
                // Consume the value only when it parses, so a
                // following flag is not swallowed by a bad value.
                const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
                bool ok = false;
                if (v) {
                    unsigned n = 0;
                    const char *end = v + std::strlen(v);
                    auto [p, ec] = std::from_chars(v, end, n);
                    if (ec == std::errc() && p == end && n > 0) {
                        o.iters = n;
                        ok = true;
                        ++i;
                    }
                }
                if (!ok) {
                    std::cerr << "--iters expects a positive integer, "
                                 "got '"
                              << (v ? v : "") << "'; ignoring\n";
                }
            }
        }
        return o;
    }
};

/**
 * Accumulates every table a bench emits and rewrites the --json file
 * as one array of {title, note, headers, rows} objects, rows keyed by
 * header — the machine-readable record the BENCH_*.json perf
 * trajectory is built from. Benches are single-threaded; rewriting on
 * each emit keeps the file valid even if the bench aborts later.
 */
inline void
emitJson(const std::string &path, const std::string &title,
         const std::string &note, const TextTable &table)
{
    // Keyed by destination so two --json paths in one process (or a
    // future multi-file bench) cannot cross-contaminate.
    static std::map<std::string, std::vector<std::string>> rendered_by;
    std::vector<std::string> &rendered = rendered_by[path];

    // First table into a file: lead with the host fingerprint, so
    // trend comparisons can tell a regression from a host change
    // (scripts/bench_trend.py warns instead of failing across
    // differing fingerprints). profile_hash records the autotuner
    // profile applied to this process, "" when untuned.
    if (rendered.empty()) {
        const auto fp = tune::HostFingerprint::current("");
        std::string meta;
        meta.append("  {\n    \"title\": \"__meta__\",\n"
                    "    \"fingerprint\": {\"cpu\": \"");
        meta.append(jsonEscape(fp.cpuModel));
        meta.append("\", \"cores\": ");
        meta.append(std::to_string(fp.cores));
        meta.append(", \"dispatch\": \"");
        meta.append(jsonEscape(fp.dispatch));
        meta.append("\", \"profile_hash\": \"");
        meta.append(jsonEscape(tune::activeProfileHash()));
        meta.append("\"}\n  }");
        rendered.push_back(std::move(meta));
    }

    // Built with append() chains: GCC 12 raises a -Wrestrict false
    // positive on nested operator+ of temporaries here.
    const auto &headers = table.headers();
    std::string obj;
    obj.append("  {\n    \"title\": \"");
    obj.append(jsonEscape(title));
    obj.append("\",\n    \"note\": \"");
    obj.append(jsonEscape(note));
    obj.append("\",\n    \"headers\": [");
    for (size_t c = 0; c < headers.size(); ++c) {
        if (c)
            obj.append(", ");
        obj.append("\"");
        obj.append(jsonEscape(headers[c]));
        obj.append("\"");
    }
    obj.append("],\n    \"rows\": [\n");
    bool first_row = true;
    for (const auto &row : table.rawRows()) {
        if (row.empty())
            continue; // separator
        if (!first_row)
            obj.append(",\n");
        first_row = false;
        obj.append("      {");
        for (size_t c = 0; c < headers.size() && c < row.size(); ++c) {
            if (c)
                obj.append(", ");
            obj.append("\"");
            obj.append(jsonEscape(headers[c]));
            obj.append("\": \"");
            obj.append(jsonEscape(row[c]));
            obj.append("\"");
        }
        obj.append("}");
    }
    obj.append("\n    ]\n  }");
    rendered.push_back(std::move(obj));

    std::ofstream f(path, std::ios::trunc);
    if (!f) {
        std::cerr << "--json: cannot write '" << path << "'\n";
        return;
    }
    f << "[\n";
    for (size_t i = 0; i < rendered.size(); ++i)
        f << rendered[i] << (i + 1 < rendered.size() ? ",\n" : "\n");
    f << "]\n";
}

/** Print the experiment banner and the table (text, CSV, JSON). */
inline void
emit(const Options &o, const std::string &title, const TextTable &table,
     const std::string &note = "")
{
    if (!o.jsonPath.empty())
        emitJson(o.jsonPath, title, note, table);
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

#endif // HEROSIGN_BENCH_BENCH_UTIL_HH
