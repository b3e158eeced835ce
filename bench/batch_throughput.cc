/**
 * @file
 * Real batch-signing throughput: scalar loop vs BatchSigner with
 * 1/2/4/8 workers across the Table I parameter sets. This is the
 * executed counterpart of the Fig. 13 batch-size sweep — wall-clock
 * signatures per second instead of simulated makespan, which stays in
 * the model tables (fig13_block_sweep), out of these measured rows.
 *
 * A second table sweeps workers (1/2/4/8/16) x lane width
 * (scalar/x8/x16) x batching mode: "within" caps the coalescing
 * group at one job (signGroup() of one: each signature batches only
 * its own hash work) while "cross" lets workers coalesce up to 16
 * queued signatures into one signGroup() call. The cross rows are
 * the sign-side counterpart of the verifier's across-signature lane
 * fill.
 *
 *   $ ./batch_throughput [--csv] [--msgs N] [--set NAME]
 *
 * Worker scaling only shows above one hardware thread; on a 1-core
 * host the multi-worker rows degenerate to the scalar rate minus
 * queue overhead — the within-vs-cross delta, however, is a SIMD
 * lane-fill effect and survives at any core count.
 */

#include <chrono>
#include <cstdlib>
#include <thread>

#include "batch/batch_signer.hh"
#include "batch/lane_scheduler.hh"
#include "bench_util.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::bench;
using batch::BatchSigner;
using batch::BatchSignerConfig;
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
 * Sequential scalar reference: one thread, no queue, duration-bounded
 * through the shared bench measurement helper (measureFor)
 * but never fewer signatures than the batch the worker rows sign.
 */
MeasureResult
scalarSignRun(const SphincsPlus &scheme, const sphincs::SecretKey &sk,
              const std::vector<ByteVec> &msgs)
{
    size_t i = 0;
    const auto sign_one = [&] {
        ByteVec sig = scheme.sign(msgs[i++ % msgs.size()], sk);
        if (sig.size() != scheme.params().sigBytes())
            std::abort(); // keep the signing work observable
    };
    MeasureResult r = measureFor(0.20, /*warmup_iters=*/0, sign_one);
    while (r.iters < msgs.size()) {
        const double t0 = nowUs();
        sign_one();
        r.wallUs += nowUs() - t0;
        ++r.iters;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = Options::parse(argc, argv, {"--msgs N", "--set NAME"});
    const unsigned msgs_per_set = opt.count("--msgs", 24);
    const std::string only_set = opt.text("--set");

    TextTable table({"set", "mode", "msgs", "wall ms", "sigs/s",
                     "vs scalar"});

    bool first_set = true;
    for (const Params &p : Params::all()) {
        if (!only_set.empty() && p.name.find(only_set) ==
                                     std::string::npos)
            continue;
        if (!first_set)
            table.addSeparator();
        first_set = false;
        SphincsPlus scheme(p);
        Rng rng(0xb5ac + p.n);
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        auto msgs = makeBatch(rng, msgs_per_set);

        // Reference: one thread with the lane engine forced onto
        // the portable scalar backend (same batched code, scalar
        // lanes — compression counts match the pre-batching path
        // exactly). Everything below is "vs" this row, so the
        // single-thread xN row isolates the SIMD backend speedup and
        // the worker rows show threading on top.
        sha256LanesSetCeiling(LaneBackend::Scalar);
        const MeasureResult ref = scalarSignRun(scheme, kp.sk, msgs);
        sha256LanesSetCeiling(LaneBackend::Avx512);
        const double ref_rate = ref.opsPerSec();
        table.addRow({p.name, "scalar lanes (SIMD off)",
                      std::to_string(ref.iters),
                      fmtF(ref.wallUs / 1000.0), fmtF(ref_rate, 1),
                      fmtX(1.0)});

        // Honest labeling: without an active SIMD backend this row
        // measures the same portable lanes as the reference.
        const MeasureResult xn = scalarSignRun(scheme, kp.sk, msgs);
        const double xn_rate = xn.opsPerSec();
        const LaneBackend tier = laneDispatch().backend;
        const char *xn_label =
            tier == LaneBackend::Avx512 ? "single thread, x16 AVX-512"
            : tier == LaneBackend::Avx2 ? "single thread, x8 AVX2"
                                        : "single thread (no SIMD)";
        table.addRow({p.name, xn_label, std::to_string(xn.iters),
                      fmtF(xn.wallUs / 1000.0), fmtF(xn_rate, 1),
                      fmtX(xn_rate / ref_rate)});

        for (unsigned workers : {1u, 2u, 4u, 8u}) {
            BatchSignerConfig cfg;
            cfg.workers = workers;
            BatchSigner signer(p, kp.sk, cfg);
            auto reqs = signRequests(msgs);
            auto futures = signer.submitMany(reqs);
            for (auto &f : futures)
                f.get();
            auto st = signer.drain();
            table.addRow(
                {p.name,
                 std::to_string(workers) +
                     (workers == 1 ? " worker" : " workers"),
                 std::to_string(st.jobs),
                 fmtF(st.wallUs / 1000.0), fmtF(st.sigsPerSec, 1),
                 fmtX(st.sigsPerSec / ref_rate)});
        }
    }

    emit(opt, "Batch signing throughput (real threads)", table,
         "hardware threads: " +
             std::to_string(std::thread::hardware_concurrency()));

    // --- Worker x lane-width x batching-mode scaling --------------
    struct Width
    {
        const char *name;
        LaneBackend ceiling;
    };
    const LaneBackend widest = laneDispatch().backend;
    std::vector<Width> widths = {{"scalar", LaneBackend::Scalar}};
    if (widest >= LaneBackend::Avx2)
        widths.push_back({"x8", LaneBackend::Avx2});
    if (widest == LaneBackend::Avx512)
        widths.push_back({"x16", LaneBackend::Avx512});

    TextTable scaling({"config", "set", "width", "workers", "mode",
                       "wall ms", "sigs/s", "vs within", "groups",
                       "cross jobs"});
    bool first_scaling_set = true;
    for (const Params &p : Params::all()) {
        if (!only_set.empty() && p.name.find(only_set) ==
                                     std::string::npos)
            continue;
        if (!first_scaling_set)
            scaling.addSeparator();
        first_scaling_set = false;
        SphincsPlus scheme(p);
        Rng rng(0x5ca1 + p.n);
        auto kp = scheme.keygenFromSeed(rng.bytes(3 * p.n));
        auto msgs = makeBatch(rng, msgs_per_set);

        for (const Width &w : widths) {
            sha256LanesSetCeiling(w.ceiling);
            for (unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
                double within_rate = 0;
                for (bool cross : {false, true}) {
                    BatchSignerConfig cfg;
                    cfg.workers = workers;
                    // laneGroup 1 pins groups of one; the cross
                    // rows always offer the full group so
                    // the mode split is identical at every width.
                    cfg.laneGroup =
                        cross ? batch::LaneScheduler::maxGroup : 1;
                    BatchSigner signer(p, kp.sk, cfg);
                    auto reqs = signRequests(msgs);
                    auto futures = signer.submitMany(reqs);
                    for (auto &f : futures)
                        f.get();
                    auto st = signer.drain();
                    if (!cross)
                        within_rate = st.sigsPerSec;
                    const std::string label =
                        p.name + "/" + w.name + "/w" +
                        std::to_string(workers) + "/" +
                        (cross ? "cross" : "within");
                    scaling.addRow(
                        {label, p.name, w.name,
                         std::to_string(workers),
                         cross ? "cross" : "within",
                         fmtF(st.wallUs / 1000.0),
                         fmtF(st.sigsPerSec, 1),
                         cross ? fmtX(st.sigsPerSec /
                                      std::max(1.0, within_rate))
                               : fmtX(1.0),
                         std::to_string(st.laneGroups),
                         std::to_string(st.crossSignJobs)});
                }
            }
            sha256LanesSetCeiling(LaneBackend::Avx512);
        }
    }
    emit(opt,
         "Cross-signature lane fill (workers x width x mode)", scaling,
         "within = coalescing disabled (laneGroup 1, each signature "
         "batches only its own hash work); cross = workers coalesce "
         "queued signatures into lockstep lane groups "
         "(one signGroup call each). Byte-identical output in every "
         "cell.");
    return 0;
}
