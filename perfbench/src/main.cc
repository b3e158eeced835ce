/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out DIR --def WORKLOAD.KEY=VALUE ...
 *
 * Untraced (--trace 0): runs the named workload and prints its
 * end-to-end metrics. Traced (--trace 1): runs the named workload
 * once untraced and once traced (their gap is
 * bench.trace_overhead_frac), runs batch-128f and serve-mixed traced
 * for their layer counters when they are not the named one, runs the
 * per-layer probes, and prints the per-layer metrics. Spans and a
 * run record go to DIR.
 *
 * The last stdout line is one JSON object:
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 * The exit code is 0 only when every output checked correct, no hash
 * tier was quarantined and no autotuner profile was active. A process
 * with an armed fault plan (HEROSIGN_FAULT_PLAN) is refused before
 * any measurement: injected stalls would slow every number while
 * every output still checked correct.
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "tune/profile.hh"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out = ".";
    Defs defs;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 --out DIR --def WORKLOAD.KEY=VALUE...\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        try {
            if (k == "--workload") {
                a.workload = v;
            } else if (k == "--seed") {
                a.seed = std::stoull(v);
                haveSeed = true;
            } else if (k == "--seconds") {
                a.seconds = std::stod(v);
                haveSeconds = true;
            } else if (k == "--trace") {
                a.trace = v == "1";
            } else if (k == "--out") {
                a.out = v;
            } else if (k == "--def") {
                const size_t eq = v.find('=');
                if (eq == std::string::npos)
                    usage("--def wants KEY=VALUE, got " + v);
                a.defs.set(v.substr(0, eq), std::stod(v.substr(eq + 1)));
            } else {
                usage("unknown argument " + k);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == a.workload;
    if (!known)
        usage("unknown workload '" + a.workload + "'");
    if (!haveSeed || !haveSeconds || !(a.seconds > 0))
        usage("--seed and a positive --seconds are required");
    return a;
}

/** Shortest round-trip decimal form; non-finite values print as 0. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            o += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            o += ' ';
        else
            o += ch;
    }
    return o + "\"";
}

std::string
metricsJson(const Metrics &m)
{
    std::string o = "{";
    for (size_t i = 0; i < m.items.size(); ++i)
        o += (i ? ", " : "") + jsonStr(m.items[i].name) +
             ": {\"value\": " + num(m.items[i].value) +
             ", \"unit\": " + jsonStr(m.items[i].unit) + "}";
    return o + "}";
}

RunResult
runWorkload(const std::string &name, const RunContext &ctx)
{
    if (name == "batch-128f")
        return runBatch128f(ctx);
    if (name == "serve-mixed")
        return runServeMixed(ctx);
    return runInteractive256f(ctx);
}

void
printTable(const char *title, const Metrics &m)
{
    std::printf("# %s\n", title);
    for (const Metric &x : m.items)
        std::printf("#   %-40s %16.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        // Building the injector parses HEROSIGN_FAULT_PLAN and arms it.
        herosign::FaultInjector::instance();
    } catch (const std::exception &e) {
        std::cerr << "perfbench: bad fault plan: " << e.what() << "\n";
        return 1;
    }
    if (herosign::FaultInjector::armed()) {
        std::cerr << "perfbench: a fault plan is armed "
                     "(HEROSIGN_FAULT_PLAN); refusing to measure\n";
        return 1;
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads = std::min(nproc, 4u);
    const uint64_t quarantines0 = herosign::sha256LanesQuarantineCount();
    const auto dispatch = herosign::laneDispatch();
    const char *backend = dispatch.backend == herosign::LaneBackend::Avx512
                              ? "avx512"
                          : dispatch.backend == herosign::LaneBackend::Avx2
                              ? "avx2"
                              : "portable";

    std::string laneEnv; // lane-width overrides from the environment
    for (const char *var :
         {"HEROSIGN_DISABLE_AVX2", "HEROSIGN_DISABLE_AVX512"})
        if (herosign::laneEnvFlagEnabled(var))
            laneEnv += (laneEnv.empty() ? "" : ",") + std::string(var);

    std::vector<std::string> flags, fatal;
    uint64_t attempted = 0, failed = 0;
    auto fold = [&](const RunResult &r) {
        attempted += r.attempted;
        failed += r.failed;
        flags.insert(flags.end(), r.flags.begin(), r.flags.end());
    };
    RunResult untraced;
    Metrics perLayer;
    double namedTraced = 0; ///< headline cost of the named traced run
    SpanLog untracedLog(false), tracedLog(true);
    const std::string tag = args.workload + "-seed" +
                            std::to_string(args.seed) + "-trace" +
                            (args.trace ? "1" : "0");

    try {
        untraced = runWorkload(args.workload, {args.defs, args.seed,
                                               args.seconds, threads,
                                               untracedLog});
        fold(untraced);
        if (args.trace) {
            // The named workload traced for the overhead, plus the
            // workloads whose layer counters the per-layer set needs.
            for (const std::string &w : workloadNames()) {
                const bool named = w == args.workload;
                if (!named && w == "interactive-256f")
                    continue;
                const RunResult t = runWorkload(
                    w, {args.defs, args.seed,
                        named ? args.seconds : args.seconds / 2, threads,
                        tracedLog});
                fold(t);
                perLayer.append(t.layer);
                if (named)
                    namedTraced = t.headlineCostMs;
            }
            perLayer.append(runProbes(tracedLog, fatal));
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    const uint64_t quarantines =
        herosign::sha256LanesQuarantineCount() - quarantines0;
    if (quarantines != 0)
        fatal.push_back("hash tier quarantined " +
                        std::to_string(quarantines) + " time(s)");
    const std::string profile = herosign::tune::activeProfileHash();
    if (!profile.empty())
        fatal.push_back("an autotuner profile is active: " + profile);

    const bool correct = failed == 0 && fatal.empty();

    Metrics reported = untraced.endToEnd;
    std::map<std::string, SpanTotals> self;
    if (args.trace) {
        perLayer.add("bench.trace_overhead_frac",
                     namedTraced / untraced.headlineCostMs - 1, "frac");
        perLayer.add("hash.quarantines", quarantines, "count");
        reported = perLayer;
        self = selfTimes(tracedLog.spans());
    }

    // Run record and spans, next to the build.
    std::ostringstream meta;
    meta << "{\"workload\": " << jsonStr(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": "
         << num(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"lane_backend\": " << jsonStr(backend)
         << ", \"lane_width\": " << dispatch.width
         << ", \"lane_env_overrides\": " << jsonStr(laneEnv)
         << ", \"nproc\": " << nproc << ", \"load_threads\": " << threads
         << ", \"cpu\": " << jsonStr(cpuModel())
         << ", \"profile_hash\": " << jsonStr(profile) << "}";
    std::ostringstream rec;
    rec << "{\"meta\": " << meta.str() << ",\n \"defs\": {";
    bool first = true;
    for (const auto &[k, v] : args.defs.all()) {
        rec << (first ? "" : ", ") << jsonStr(k) << ": " << num(v);
        first = false;
    }
    rec << "},\n \"end_to_end\": " << metricsJson(untraced.endToEnd)
        << ",\n \"detail\": " << metricsJson(untraced.detail)
        << ",\n \"per_layer\": " << metricsJson(perLayer) << ",\n \"flags\": [";
    std::vector<std::string> allFlags = fatal;
    allFlags.insert(allFlags.end(), flags.begin(), flags.end());
    for (size_t i = 0; i < allFlags.size(); ++i)
        rec << (i ? ", " : "") << jsonStr(allFlags[i]);
    rec << "],\n \"self_time_ms\": {";
    first = true;
    for (const auto &[name, t] : self) {
        rec << (first ? "" : ", ") << jsonStr(name)
            << ": {\"count\": " << t.count
            << ", \"total\": " << num(t.totalNs / 1e6)
            << ", \"self\": " << num(t.selfNs / 1e6) << "}";
        first = false;
    }
    rec << "}}\n";
    std::ofstream(args.out + "/run-" + tag + ".json") << rec.str();
    if (args.trace &&
        !tracedLog.writeJson(args.out + "/spans-" + tag + ".json"))
        std::cerr << "perfbench: could not write spans to " << args.out
                  << "\n";

    std::printf("# perfbench %s\n# meta %s\n", tag.c_str(),
                meta.str().c_str());
    printTable("end-to-end (untraced)", untraced.endToEnd);
    printTable("detail (untraced)", untraced.detail);
    if (args.trace) {
        printTable("per-layer (traced)", perLayer);
        std::printf("# self time by span (traced)\n");
        for (const auto &[name, t] : self)
            std::printf("#   %-40s n=%-8llu total %12.3f ms  self %12.3f ms\n",
                        name.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalNs / 1e6, t.selfNs / 1e6);
    }
    for (const std::string &f : fatal)
        std::printf("# FAIL: %s\n", f.c_str());
    for (const std::string &f : flags)
        std::printf("# FLAG: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(reported).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
