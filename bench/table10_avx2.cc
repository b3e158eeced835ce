/**
 * @file
 * Table X: CPU SIMD-lane comparison. The paper rows are literature
 * constants; the measured rows run this repository's own signer on
 * the host machine three times — with the lane engine forced onto the
 * portable scalar backend (the pre-batching reference), pinned to the
 * 8-lane AVX2 path (AVX-512 disabled), and on the full dispatch
 * (16-lane AVX-512 where the host supports it) — plus the resulting
 * single-thread speedups. Signatures are byte-identical across all
 * three backends.
 *
 * A second table scales worker threads (1/2/4/8/16) at each lane
 * width through the BatchSigner's cross-signature lane scheduler —
 * the row to hold against the paper's 16-thread AVX2 line
 * (0.828/0.560/0.356 KOPS). Each cell signs back-to-back batches of
 * 4 x workers x lane width messages for at least 0.5 s and at least
 * five batches, and prints the median batch rate with its quartiles,
 * so cells are compared against their own spread. On a host with
 * fewer cores the thread rows flatten; the lane-width split remains.
 *
 * Flags: --iters N (signatures per single-thread measurement,
 * default 3), --csv.
 */

#include <algorithm>
#include <chrono>
#include <thread>

#include "batch/batch_signer.hh"
#include "bench_util.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using namespace herosign::bench;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/** q-quantile (0..1) of @p v, interpolated between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * (v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}

/**
 * One thread-scaling cell: KOPS of back-to-back batches of
 * 4 x workers x lane width messages through a cross-signature
 * BatchSigner, pinned to @p ceiling, as "median (q1-q3)" over at
 * least five batches and 0.5 s.
 */
std::string
threadedKopsCell(const Params &p, LaneBackend ceiling, unsigned workers)
{
    using batch::BatchSigner;
    using batch::BatchSignerConfig;

    sha256LanesSetCeiling(ceiling);
    sphincs::SphincsPlus scheme(p);
    Rng rng(1);
    auto kp = scheme.keygen(rng);
    std::vector<ByteVec> batch(4 * workers * sphincs::hashLaneWidth());
    for (auto &m : batch)
        m = rng.bytes(64);

    BatchSignerConfig cfg;
    cfg.workers = workers;
    cfg.shards = 4;
    BatchSigner signer(p, kp.sk, cfg);
    std::vector<double> kops;
    auto sign_batch = [&] {
        auto reqs = signRequests(batch);
        for (auto &f : signer.submitMany(reqs))
            f.get();
        kops.push_back(signer.drain().sigsPerSec / 1000.0);
    };
    sign_batch(); // warm-up
    kops.clear();
    measureFor(0.5, 0, sign_batch);
    while (kops.size() < 5)
        sign_batch();
    sha256LanesSetCeiling(LaneBackend::Avx512);
    return fmtF(quantile(kops, 0.5), 3) + " (" +
           fmtF(quantile(kops, 0.25), 3) + "-" +
           fmtF(quantile(kops, 0.75), 3) + ")";
}

double
measureKops(const Params &p, LaneBackend ceiling, unsigned iters)
{
    SphincsPlus scheme(p);
    Rng rng(1);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(64);

    sha256LanesSetCeiling(ceiling);
    scheme.sign(msg, kp.sk); // warm-up
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        scheme.sign(msg, kp.sk);
    auto t1 = std::chrono::steady_clock::now();
    sha256LanesSetCeiling(LaneBackend::Avx512);

    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        iters;
    return 1000.0 / us; // KOPS
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv, {"--iters N"});
    const unsigned iters = o.count("--iters", 3);

    struct Literature
    {
        const char *set;
        double single, threads16;
    };
    const Literature lit[] = {
        {"SPHINCS+-128f", 0.143, 0.828},
        {"SPHINCS+-192f", 0.087, 0.560},
        {"SPHINCS+-256f", 0.044, 0.356},
    };
    const Params *sets[] = {&Params::sphincs128f(),
                            &Params::sphincs192f(),
                            &Params::sphincs256f()};

    // The dispatched tier, not merely the compiled one: the
    // HEROSIGN_DISABLE_* knobs must not mislabel narrower-path
    // numbers as a SIMD row.
    const LaneBackend widest = laneDispatch().backend;
    const bool have_avx2 = widest >= LaneBackend::Avx2;
    const bool have_avx512 = widest == LaneBackend::Avx512;
    double scalar[3], x8[3], x16[3];
    for (int i = 0; i < 3; ++i) {
        scalar[i] = measureKops(*sets[i], LaneBackend::Scalar, iters);
        x8[i] = have_avx2 ? measureKops(*sets[i], LaneBackend::Avx2, iters)
                          : 0.0;
        x16[i] = have_avx512
                     ? measureKops(*sets[i], LaneBackend::Avx512, iters)
                     : 0.0;
    }

    TextTable t({"Implementation", "128f KOPS", "192f KOPS",
                 "256f KOPS"});
    t.addRow({"AVX2 single thread (paper)", fmtF(lit[0].single, 3),
              fmtF(lit[1].single, 3), fmtF(lit[2].single, 3)});
    t.addRow({"AVX2 16 threads (paper)", fmtF(lit[0].threads16, 3),
              fmtF(lit[1].threads16, 3), fmtF(lit[2].threads16, 3)});
    t.addRow({"this repo, scalar lanes (measured)", fmtF(scalar[0], 3),
              fmtF(scalar[1], 3), fmtF(scalar[2], 3)});
    if (have_avx2) {
        t.addRow({"this repo, x8 AVX2 (measured)", fmtF(x8[0], 3),
                  fmtF(x8[1], 3), fmtF(x8[2], 3)});
        t.addRow({"x8 AVX2 speedup vs scalar",
                  fmtF(x8[0] / scalar[0], 2), fmtF(x8[1] / scalar[1], 2),
                  fmtF(x8[2] / scalar[2], 2)});
    } else {
        t.addRow({"this repo, x8 AVX2 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    if (have_avx512) {
        t.addRow({"this repo, x16 AVX-512 (measured)", fmtF(x16[0], 3),
                  fmtF(x16[1], 3), fmtF(x16[2], 3)});
        t.addRow({"x16 AVX-512 speedup vs scalar",
                  fmtF(x16[0] / scalar[0], 2),
                  fmtF(x16[1] / scalar[1], 2),
                  fmtF(x16[2] / scalar[2], 2)});
        if (have_avx2) {
            t.addRow({"x16 speedup vs x8", fmtF(x16[0] / x8[0], 2),
                      fmtF(x16[1] / x8[1], 2), fmtF(x16[2] / x8[2], 2)});
        }
    } else {
        t.addRow({"this repo, x16 AVX-512 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    emit(o, "Table X: CPU comparison (KOPS)", t,
         "The paper's point: even multi-threaded AVX2 trails the GPU "
         "by two orders of magnitude. The measured rows compare this "
         "repo's batched signer on scalar vs 8-lane AVX2 vs 16-lane "
         "AVX-512 hash lanes.");

    // --- Thread scaling through the cross-signature scheduler -----
    struct Backend
    {
        const char *name;
        LaneBackend ceiling;
    };
    std::vector<Backend> backends = {{"scalar", LaneBackend::Scalar}};
    if (have_avx2)
        backends.push_back({"x8 AVX2", LaneBackend::Avx2});
    if (have_avx512)
        backends.push_back({"x16 AVX-512", LaneBackend::Avx512});

    TextTable ts({"Configuration", "128f KOPS", "192f KOPS",
                  "256f KOPS"});
    ts.addRow({"AVX2 16 threads (paper)", fmtF(lit[0].threads16, 3),
               fmtF(lit[1].threads16, 3), fmtF(lit[2].threads16, 3)});
    for (const Backend &b : backends) {
        for (unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
            std::vector<std::string> row = {
                std::string(b.name) + ", " + std::to_string(threads) +
                (threads == 1 ? " thread" : " threads")};
            for (const Params *set : sets)
                row.push_back(threadedKopsCell(*set, b.ceiling, threads));
            ts.addRow(row);
        }
    }
    emit(o, "Table X+: thread scaling (KOPS, cross-signature batching)",
         ts,
         "BatchSigner workers coalescing queued signatures into "
         "lockstep lane groups; each cell is the median (quartiles) "
         "of >= 5 batches of 4 x workers x lane width messages; "
         "hardware threads on this host: " +
             std::to_string(std::thread::hardware_concurrency()) +
             ". Hold the 16-thread rows against the paper's AVX2 "
             "16-thread line.");
    return 0;
}
