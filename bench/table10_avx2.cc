/**
 * @file
 * Table X: CPU SIMD-lane comparison. The paper rows are literature
 * constants; the measured rows run this repository's own signer on
 * the host machine three times — with the lane engine forced onto the
 * portable scalar backend (the pre-batching reference), pinned to the
 * 8-lane AVX2 path (AVX-512 disabled), and on the full dispatch
 * (16-lane AVX-512 where the host supports it) — plus the resulting
 * single-thread speedups (ratios of the medians). Each single-thread
 * cell signs one message at a time for at least 0.5 s and at least
 * --iters signatures and prints the median rate with its quartiles.
 * Signatures are byte-identical across all three backends.
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
 * Flags: --iters N (minimum signatures per single-thread cell,
 * default 5), --csv.
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

/** A measured cell: median KOPS with its quartiles. */
struct Kops
{
    double q1 = 0, median = 0, q3 = 0;

    std::string
    cell() const
    {
        return fmtF(median, 3) + " (" + fmtF(q1, 3) + "-" +
               fmtF(q3, 3) + ")";
    }
};

/**
 * Call @p sample (which returns one KOPS reading) back to back for at
 * least 0.5 s and at least @p min_samples times.
 */
template <typename Sample>
Kops
sampleKops(unsigned min_samples, Sample &&sample)
{
    std::vector<double> kops;
    measureFor(0.5, 0, [&] { kops.push_back(sample()); });
    while (kops.size() < min_samples)
        kops.push_back(sample());
    return {quantile(kops, 0.25), quantile(kops, 0.5),
            quantile(kops, 0.75)};
}

/**
 * One thread-scaling cell: KOPS of back-to-back batches of
 * 4 x workers x lane width messages through a cross-signature
 * BatchSigner, pinned to @p ceiling, over at least five batches and
 * 0.5 s.
 */
Kops
threadedKops(const Params &p, LaneBackend ceiling, unsigned workers)
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
    BatchSigner signer(p, kp.sk, cfg);
    auto sign_batch = [&] {
        auto reqs = signRequests(batch);
        for (auto &f : signer.submitMany(reqs))
            f.get();
        return signer.drain().sigsPerSec / 1000.0;
    };
    sign_batch(); // warm-up
    const Kops k = sampleKops(5, sign_batch);
    sha256LanesSetCeiling(LaneBackend::Avx512);
    return k;
}

/**
 * One single-thread cell: KOPS of one signature at a time, pinned to
 * @p ceiling, over at least @p min_samples signatures and 0.5 s.
 */
Kops
singleKops(const Params &p, LaneBackend ceiling, unsigned min_samples)
{
    SphincsPlus scheme(p);
    Rng rng(1);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(64);

    sha256LanesSetCeiling(ceiling);
    scheme.sign(msg, kp.sk); // warm-up
    const Kops k = sampleKops(min_samples, [&] {
        const auto t0 = std::chrono::steady_clock::now();
        scheme.sign(msg, kp.sk);
        const auto t1 = std::chrono::steady_clock::now();
        return 1000.0 /
               std::chrono::duration<double, std::micro>(t1 - t0).count();
    });
    sha256LanesSetCeiling(LaneBackend::Avx512);
    return k;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = Options::parse(argc, argv, {"--iters N"});
    const unsigned iters = o.count("--iters", 5);

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
    Kops scalar[3], x8[3], x16[3];
    for (int i = 0; i < 3; ++i) {
        scalar[i] = singleKops(*sets[i], LaneBackend::Scalar, iters);
        if (have_avx2)
            x8[i] = singleKops(*sets[i], LaneBackend::Avx2, iters);
        if (have_avx512)
            x16[i] = singleKops(*sets[i], LaneBackend::Avx512, iters);
    }
    const auto cells = [](const Kops *k) {
        return std::vector<std::string>{k[0].cell(), k[1].cell(),
                                        k[2].cell()};
    };
    const auto ratios = [](const Kops *a, const Kops *b) {
        std::vector<std::string> r;
        for (int i = 0; i < 3; ++i)
            r.push_back(fmtF(a[i].median / b[i].median, 2));
        return r;
    };
    const auto labeled = [](std::string label, std::vector<std::string> c) {
        c.insert(c.begin(), std::move(label));
        return c;
    };

    TextTable t({"Implementation", "128f KOPS", "192f KOPS",
                 "256f KOPS"});
    t.addRow({"AVX2 single thread (paper)", fmtF(lit[0].single, 3),
              fmtF(lit[1].single, 3), fmtF(lit[2].single, 3)});
    t.addRow({"AVX2 16 threads (paper)", fmtF(lit[0].threads16, 3),
              fmtF(lit[1].threads16, 3), fmtF(lit[2].threads16, 3)});
    t.addRow(labeled("this repo, scalar lanes (measured)", cells(scalar)));
    if (have_avx2) {
        t.addRow(labeled("this repo, x8 AVX2 (measured)", cells(x8)));
        t.addRow(labeled("x8 AVX2 speedup vs scalar", ratios(x8, scalar)));
    } else {
        t.addRow({"this repo, x8 AVX2 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    if (have_avx512) {
        t.addRow(labeled("this repo, x16 AVX-512 (measured)", cells(x16)));
        t.addRow(
            labeled("x16 AVX-512 speedup vs scalar", ratios(x16, scalar)));
        if (have_avx2)
            t.addRow(labeled("x16 speedup vs x8", ratios(x16, x8)));
    } else {
        t.addRow({"this repo, x16 AVX-512 (measured)", "n/a", "n/a",
                  "n/a"});
    }
    emit(o, "Table X: CPU comparison (KOPS)", t,
         "The paper's point: even multi-threaded AVX2 trails the GPU "
         "by two orders of magnitude. The measured rows compare this "
         "repo's batched signer on scalar vs 8-lane AVX2 vs 16-lane "
         "AVX-512 hash lanes; each measured cell is the median "
         "(quartiles) of >= --iters single signatures over >= 0.5 s, "
         "each speedup a ratio of medians.");

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
                row.push_back(threadedKops(*set, b.ceiling, threads).cell());
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
