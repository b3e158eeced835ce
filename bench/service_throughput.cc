/**
 * @file
 * Serving-layer throughput: the batched lane-parallel verification
 * path against one-at-a-time verify() with SIMD off, and multi-tenant
 * sign routing through SignService's warm context cache.
 *
 *   $ ./service_throughput [--csv] [--msgs N] [--set NAME]
 *                          [--tenants T]
 *
 * Verify rows per parameter set:
 *   - "verify() one at a time (SIMD off)": one-at-a-time
 *     SphincsPlus::verify with the lane hash engine forced onto
 *     scalar lanes — the reference every other row is measured
 *     against (same convention as batch_throughput).
 *   - "verify() one at a time": the same loop with the SIMD backend
 *     active; each verify() is a verifyBatch() group of one, so lanes
 *     fill only within its own signature.
 *   - "verifyBatch xN": the batched path, lanes filled across
 *     signatures. The acceptance bar is >= 2x the SIMD-off
 *     reference, single-threaded.
 *
 * The sign-routing section drives one SignService over T tenants and
 * reports throughput plus the context-cache counters proving the hot
 * path constructs no per-sign Context (misses == tenants).
 *
 * The traffic-fabric section drives a SignService/VerifyService pair
 * sharing one cache, stats registry and admission controller with
 * mixed traffic, in a closed loop (one request in flight per
 * producer) and an open loop (burst submit), reporting per-plane
 * throughput and p50/p95/p99 latency.
 */

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "bench_util.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "service/sign_service.hh"
#include "service/verify_service.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::bench;
using service::KeyStore;
using service::ServiceConfig;
using service::SignService;
using service::VerifyService;
using sphincs::Context;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<ByteVec>
makeBatch(Rng &rng, unsigned count)
{
    std::vector<ByteVec> msgs;
    msgs.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        msgs.push_back(rng.bytes(32));
    return msgs;
}

/**
 * One-at-a-time verification, duration-bounded through the shared
 * bench measurement helper (measureFor). One iteration
 * verifies one signature.
 */
MeasureResult
verifyEachRun(const SphincsPlus &scheme, const sphincs::PublicKey &pk,
                const std::vector<ByteVec> &msgs,
                const std::vector<ByteVec> &sigs)
{
    size_t i = 0;
    return measureFor(0.20, /*warmup_iters=*/1, [&] {
        const size_t k = i++ % msgs.size();
        if (!scheme.verify(msgs[k], sigs[k], pk))
            std::abort(); // all inputs are valid by construction
    });
}

/**
 * Batched lane-parallel verification with a warm context, duration
 * bounded like verifyEachRun. One iteration verifies the whole
 * batch (the unit the lane scheduler fills lanes across).
 */
MeasureResult
batchVerifyRun(const SphincsPlus &scheme, const Context &ctx,
               const sphincs::PublicKey &pk,
               const std::vector<ByteVec> &msgs,
               const std::vector<ByteVec> &sigs)
{
    std::vector<ByteSpan> m(msgs.size());
    std::vector<ByteSpan> s(sigs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
        m[i] = ByteSpan(msgs[i]);
        s[i] = ByteSpan(sigs[i]);
    }
    return measureFor(0.20, /*warmup_iters=*/1, [&] {
        auto ok = scheme.verifyBatch(ctx, m, s, pk);
        for (size_t i = 0; i < ok.size(); ++i)
            if (!ok[i])
                std::abort();
    });
}

/** Add one row per plane with throughput and latency percentiles. */
void
addLatencyRows(TextTable &table, const std::string &set,
               const std::string &mode, double wall_us,
               const std::vector<std::vector<double>> &sign_lat,
               const std::vector<std::vector<double>> &verify_lat)
{
    const std::pair<const char *,
                    const std::vector<std::vector<double>> *>
        planes[] = {{"sign", &sign_lat}, {"verify", &verify_lat}};
    for (const auto &[plane, shards] : planes) {
        std::vector<double> lat;
        for (const auto &v : *shards)
            lat.insert(lat.end(), v.begin(), v.end());
        const double rate =
            wall_us > 0 ? lat.size() * 1e6 / wall_us : 0.0;
        table.addRow({set, mode, plane, std::to_string(lat.size()),
                      fmtF(wall_us / 1000.0), fmtF(rate, 1),
                      fmtF(percentileMs(lat, 0.50)),
                      fmtF(percentileMs(lat, 0.95)),
                      fmtF(percentileMs(lat, 0.99))});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv,
                                 {"--msgs N", "--set NAME", "--tenants T"});
    const unsigned msgs_per_set = opt.count("--msgs", 48);
    const unsigned tenants = opt.count("--tenants", 4);
    const std::string only_set = opt.text("--set");

    // --- Batched verification vs one-at-a-time verify(), SIMD off. ---
    TextTable vt({"set", "mode", "sigs", "wall ms", "verifies/s",
                  "vs SIMD off"});
    bool first_set = true;
    for (const Params &p : Params::all()) {
        if (!only_set.empty() &&
            p.name.find(only_set) == std::string::npos)
            continue;
        if (!first_set)
            vt.addSeparator();
        first_set = false;

        SphincsPlus scheme(p);
        Rng rng(0x5e21 + p.n);
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        auto msgs = makeBatch(rng, msgs_per_set);
        std::vector<ByteVec> sigs;
        sigs.reserve(msgs.size());
        for (const auto &m : msgs)
            sigs.push_back(scheme.sign(m, kp.sk));
        Context ctx(p, kp.pk.pkSeed, {});

        // Reference: one-at-a-time verify() with the lane engine
        // forced onto scalar lanes.
        sha256LanesSetCeiling(LaneBackend::Scalar);
        const MeasureResult ref =
            verifyEachRun(scheme, kp.pk, msgs, sigs);
        sha256LanesSetCeiling(LaneBackend::Avx512);
        const double ref_rate = ref.opsPerSec();
        vt.addRow({p.name, "verify() one at a time (SIMD off)",
                   std::to_string(ref.iters), fmtF(ref.wallUs / 1000.0),
                   fmtF(ref_rate, 1), fmtX(1.0)});

        const LaneBackend tier = laneDispatch().backend;
        const bool simd = tier != LaneBackend::Scalar;
        const MeasureResult sc =
            verifyEachRun(scheme, kp.pk, msgs, sigs);
        const double sc_rate = sc.opsPerSec();
        vt.addRow({p.name,
                   simd ? "verify() one at a time"
                        : "verify() one at a time (no SIMD)",
                   std::to_string(sc.iters), fmtF(sc.wallUs / 1000.0),
                   fmtF(sc_rate, 1), fmtX(sc_rate / ref_rate)});

        const MeasureResult bx =
            batchVerifyRun(scheme, ctx, kp.pk, msgs, sigs);
        const uint64_t bx_sigs = bx.iters * msgs.size();
        const double bx_rate =
            bx.wallUs > 0 ? bx_sigs * 1e6 / bx.wallUs : 0.0;
        const char *bx_label =
            tier == LaneBackend::Avx512 ? "verifyBatch x16 AVX-512"
            : tier == LaneBackend::Avx2 ? "verifyBatch x8 AVX2"
                                        : "verifyBatch (no SIMD)";
        vt.addRow({p.name, bx_label, std::to_string(bx_sigs),
                   fmtF(bx.wallUs / 1000.0), fmtF(bx_rate, 1),
                   fmtX(bx_rate / ref_rate)});
    }
    emit(opt, "Batched verification throughput (single thread)", vt,
         "reference = verify() one at a time with the lane engine "
         "forced scalar; batched verify fills hash lanes across "
         "signatures");

    // --- Multi-tenant sign routing through the warm context cache ---
    // Same substring matching as the verify section above.
    const Params *routing_set = &Params::sphincs128f();
    for (const Params &cand : Params::all()) {
        if (!only_set.empty() &&
            cand.name.find(only_set) != std::string::npos) {
            routing_set = &cand;
            break;
        }
    }
    const Params &p = *routing_set;
    SphincsPlus scheme(p);
    Rng rng(0xc0de);
    KeyStore store;
    for (unsigned t = 0; t < tenants; ++t)
        store.addKey(std::string("tenant-").append(std::to_string(t)),
                     scheme.keygenFromSeed(rng.bytes(3 * p.n)));

    TextTable st({"set", "tenants", "workers", "sigs", "wall ms",
                  "sigs/s", "ctx builds", "cache hits"});
    for (unsigned workers : {1u, 4u}) {
        ServiceConfig cfg;
        cfg.workers = workers;
        const uint64_t ctx0 = Context::constructionCount();
        SignService svc(store, cfg);
        std::vector<std::future<ByteVec>> futs;
        futs.reserve(msgs_per_set);
        for (unsigned i = 0; i < msgs_per_set; ++i)
            futs.push_back(svc.submit(
                std::string("tenant-").append(
                    std::to_string(i % tenants)),
                {rng.bytes(32), {}, {}, {}}));
        for (auto &f : futs)
            f.get();
        svc.drain();
        auto stats = svc.stats();
        const uint64_t ctx_built = Context::constructionCount() - ctx0;
        st.addRow({p.name, std::to_string(tenants),
                   std::to_string(workers),
                   std::to_string(stats.signsCompleted),
                   fmtF(stats.wallUs / 1000.0),
                   fmtF(stats.sigsPerSec, 1),
                   std::to_string(ctx_built),
                   std::to_string(stats.cache.hits)});
    }
    emit(opt, "Multi-tenant sign routing (warm context cache)", st,
         "ctx builds counts every sphincs::Context constructed during "
         "the run: == tenants when the hot path is construction-free; "
         "hardware threads: " +
             std::to_string(std::thread::hardware_concurrency()));

    // --- Verify-after-sign guard: the release-gate overhead ---
    // Same routing workload with the fault-tolerance guard off and
    // on; the delta is the price of verifying every signature before
    // release (one verify per sign, fault-free).
    TextTable gt({"guard", "set", "workers", "sigs", "wall ms",
                  "sigs/s", "mismatches"});
    for (const bool guard : {false, true}) {
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.verifyAfterSign = guard;
        SignService svc(store, cfg);
        std::vector<std::future<ByteVec>> futs;
        futs.reserve(msgs_per_set);
        for (unsigned i = 0; i < msgs_per_set; ++i)
            futs.push_back(svc.submit(
                std::string("tenant-").append(
                    std::to_string(i % tenants)),
                {rng.bytes(32), {}, {}, {}}));
        for (auto &f : futs)
            f.get();
        svc.drain();
        auto stats = svc.stats();
        gt.addRow({guard ? "on" : "off", p.name, "2",
                   std::to_string(stats.signsCompleted),
                   fmtF(stats.wallUs / 1000.0),
                   fmtF(stats.sigsPerSec, 1),
                   std::to_string(stats.guardMismatches)});
    }
    emit(opt, "Verify-after-sign guard overhead", gt,
         "guard on verifies every signature before its future "
         "resolves (ServiceConfig::verifyAfterSign); mismatches stays "
         "0 on a fault-free run");

    // --- Mixed sign+verify through the unified traffic fabric ---
    // One SignService/VerifyService pair shares the warm context
    // cache, stats registry and admission controller. Closed loop:
    // each producer keeps exactly one request in flight, alternating
    // planes — the latency view. Open loop: the whole batch bursts in
    // up front and completions are stamped in submission order — the
    // throughput view.
    std::vector<std::pair<ByteVec, ByteVec>> vpool;
    for (unsigned t = 0; t < tenants; ++t) {
        ByteVec m = rng.bytes(32);
        ByteVec s = scheme.sign(
            m, store.find(std::string("tenant-").append(
                              std::to_string(t)))
                   ->sk);
        vpool.emplace_back(std::move(m), std::move(s));
    }

    TextTable mt({"set", "mode", "plane", "requests", "wall ms",
                  "ops/s", "p50 ms", "p95 ms", "p99 ms"});
    const unsigned producers = 2;
    const unsigned per_producer = msgs_per_set;

    ServiceConfig mcfg;
    mcfg.workers = 2;
    mcfg.verifyWorkers = 2;
    {
        SignService ssvc(store, mcfg);
        VerifyService vsvc(store, mcfg, ssvc.contextCache(),
                           ssvc.statsRegistry(), ssvc.admission());
        std::vector<std::vector<double>> sign_lat(producers);
        std::vector<std::vector<double>> verify_lat(producers);
        const double t0 = nowUs();
        std::vector<std::thread> ts;
        for (unsigned t = 0; t < producers; ++t) {
            ts.emplace_back([&, t] {
                Rng trng(0xfab0 + t);
                for (unsigned i = 0; i < per_producer; ++i) {
                    const unsigned tenant = (t + i) % tenants;
                    const std::string id =
                        std::string("tenant-").append(
                            std::to_string(tenant));
                    const double s0 = nowUs();
                    if (i % 2 == 0) {
                        ssvc.submit(id, {trng.bytes(32), {}, {}, {}})
                            .get();
                        sign_lat[t].push_back(nowUs() - s0);
                    } else {
                        vsvc.submit(id, {vpool[tenant].first,
                                         vpool[tenant].second, {}})
                            .get();
                        verify_lat[t].push_back(nowUs() - s0);
                    }
                }
            });
        }
        for (auto &th : ts)
            th.join();
        const double wall = nowUs() - t0;
        ssvc.drain();
        vsvc.drain();
        addLatencyRows(mt, p.name, "closed", wall, sign_lat,
                       verify_lat);
    }
    {
        SignService ssvc(store, mcfg);
        VerifyService vsvc(store, mcfg, ssvc.contextCache(),
                           ssvc.statsRegistry(), ssvc.admission());
        struct Pending
        {
            double submitUs;
            std::future<ByteVec> sign;
            std::future<bool> verify;
        };
        std::vector<Pending> pend;
        pend.reserve(producers * per_producer);
        const double t0 = nowUs();
        for (unsigned i = 0; i < producers * per_producer; ++i) {
            const unsigned tenant = i % tenants;
            const std::string id = std::string("tenant-").append(
                std::to_string(tenant));
            Pending pd;
            pd.submitUs = nowUs();
            if (i % 2 == 0)
                pd.sign = ssvc.submit(id, {rng.bytes(32), {}, {}, {}});
            else
                pd.verify = vsvc.submit(id, {vpool[tenant].first,
                                             vpool[tenant].second, {}});
            pend.push_back(std::move(pd));
        }
        // Stamp completions in submission order: each latency spans
        // queueing + coalescing + the lane-parallel pass.
        std::vector<std::vector<double>> sign_lat(1), verify_lat(1);
        for (auto &pd : pend) {
            if (pd.sign.valid()) {
                pd.sign.get();
                sign_lat[0].push_back(nowUs() - pd.submitUs);
            } else {
                pd.verify.get();
                verify_lat[0].push_back(nowUs() - pd.submitUs);
            }
        }
        const double wall = nowUs() - t0;
        ssvc.drain();
        vsvc.drain();
        addLatencyRows(mt, p.name, "open", wall, sign_lat, verify_lat);
    }
    emit(opt, "Mixed sign+verify traffic fabric", mt,
         "closed loop: " + std::to_string(producers) +
             " producers, one request in flight each; open loop: "
             "burst submit, completions stamped in submission order; "
             "shared cache/stats/admission across both planes");

    // --- Telemetry overhead: the armed vs disarmed serving fabric ---
    // Same open-loop mixed workload with the telemetry plane runtime-
    // disabled (one relaxed-load branch per stamp site) and armed
    // (stage stamps + histogram records + 1-in-64 span sampling).
    // The delta is the full price of observability on the hot path.
    TextTable tt({"telemetry", "set", "requests", "wall ms", "ops/s",
                  "vs off"});
    service::ServiceStats armed_stats;
    double off_rate = 0.0;
    for (const bool armed : {false, true}) {
        ServiceConfig cfg = mcfg;
        cfg.telemetry.enabled = armed;
        SignService ssvc(store, cfg);
        VerifyService vsvc(store, cfg, ssvc.contextCache(),
                           ssvc.statsRegistry(), ssvc.admission());
        // Untimed warmup: populate each fresh fabric's context cache
        // per tenant so the off/on rows compare warm against warm
        // rather than charging the first configuration the builds.
        for (unsigned tenant = 0; tenant < tenants; ++tenant) {
            const std::string id = std::string("tenant-").append(
                std::to_string(tenant));
            ssvc.submit(id, {rng.bytes(32), {}, {}, {}}).get();
            vsvc.submit(id,
                        {vpool[tenant].first, vpool[tenant].second, {}})
                .get();
        }
        const unsigned total = producers * per_producer;
        std::vector<std::future<ByteVec>> sfuts;
        std::vector<std::future<bool>> vfuts;
        const double t0 = nowUs();
        for (unsigned i = 0; i < total; ++i) {
            const unsigned tenant = i % tenants;
            const std::string id = std::string("tenant-").append(
                std::to_string(tenant));
            if (i % 2 == 0)
                sfuts.push_back(
                    ssvc.submit(id, {rng.bytes(32), {}, {}, {}}));
            else
                vfuts.push_back(vsvc.submit(
                    id,
                    {vpool[tenant].first, vpool[tenant].second, {}}));
        }
        for (auto &f : sfuts)
            f.get();
        for (auto &f : vfuts)
            f.get();
        const double wall = nowUs() - t0;
        ssvc.drain();
        vsvc.drain();
        const double rate = total * 1e6 / wall;
        if (!armed)
            off_rate = rate;
        else
            armed_stats = ssvc.stats().mergedWith(vsvc.stats());
        tt.addRow({armed ? "on" : "off", p.name,
                   std::to_string(total), fmtF(wall / 1000.0),
                   fmtF(rate, 1),
                   fmtX(off_rate > 0 ? rate / off_rate : 1.0)});
    }
    emit(opt, "Telemetry overhead (open-loop fabric)", tt,
         "off = telemetry runtime-disabled (stamps fold to one "
         "relaxed load); on = stage histograms + 1-in-64 trace "
         "sampling armed; acceptance bar: <= 2% ops/s delta");

    // --- Per-stage latency decomposition from the armed run ---
    // The telemetry plane's own view of the run above: every
    // completed request's end-to-end latency decomposed into
    // queue-wait / coalesce / crypto / guard / callback stages.
    TextTable pt({"plane stage", "count", "p50 ms", "p95 ms",
                  "p99 ms"});
    for (const auto &[key, snap] : armed_stats.stages) {
        // Group-shape histograms are counts/percent, not latencies.
        if (key.find("group_size") != std::string::npos ||
            key.find("lane_fill_pct") != std::string::npos)
            continue;
        pt.addRow({key, std::to_string(snap.count),
                   fmtF(snap.percentile(0.50) / 1e6),
                   fmtF(snap.percentile(0.95) / 1e6),
                   fmtF(snap.percentile(0.99) / 1e6)});
    }
    emit(opt, "Per-stage latency decomposition (telemetry armed)", pt,
         "stage histograms from the armed open-loop run above "
         "(warmup requests included in the counts); values are "
         "exact-bucket percentiles (~3% resolution) from the "
         "lock-free telemetry histograms");
    return 0;
}
