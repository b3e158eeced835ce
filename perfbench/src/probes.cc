/**
 * @file
 * Per-layer probes for the traced run: each calls one layer's public
 * functions directly, on warm state, and reports the median of
 * repeated calls. Hash rates come from the library's own
 * compression counter, so the roofline and the counts agree with
 * what signing actually hashes.
 */
#include <algorithm>
#include <cstring>

#include "batch/lane_scheduler.hh"
#include "bench.hh"
#include "common/random.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "metrics.hh"
#include "sphincs/address.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thash.hh"
#include "telemetry/histogram.hh"

namespace perfbench
{

using herosign::ByteSpan;
using herosign::ByteVec;
using herosign::Rng;
using herosign::Sha256;
using herosign::Sha256Lanes;
using herosign::Sha256State;
using namespace herosign::sphincs;

namespace
{

/**
 * Median wall time (ms) of @p fn over at least @p min_reps calls and
 * at least @p min_s seconds, each call inside a span named @p name.
 */
template <typename F>
double
medianMs(SpanLog &spans, uint64_t parent, const char *name, int min_reps,
         double min_s, F &&fn)
{
    std::vector<double> ms;
    const int64_t start = nowNs();
    while (static_cast<int>(ms.size()) < min_reps ||
           nowNs() - start < static_cast<int64_t>(min_s * 1e9)) {
        ScopedSpan sp(spans, name, parent);
        const int64_t t0 = nowNs();
        fn();
        ms.push_back((nowNs() - t0) / 1e6);
    }
    return median(ms);
}

/**
 * Single-block compressions per second in the shape signing uses:
 * resume from the keypair's seeded mid-state, absorb one 22-byte
 * address plus an n-byte value, finalize. Each output feeds the next
 * input, as a WOTS+ chain does. Median of five timed slices.
 */
template <typename OneRound>
double
compressionsPerSecond(SpanLog &spans, uint64_t parent, const char *name,
                      OneRound &&round)
{
    std::vector<double> rates;
    for (int rep = 0; rep < 5; ++rep) {
        ScopedSpan sp(spans, name, parent);
        const uint64_t c0 = Sha256::compressionCount();
        const int64_t t0 = nowNs();
        int64_t t1 = t0;
        while (t1 - t0 < 150'000'000) {
            for (int i = 0; i < 256; ++i)
                round();
            t1 = nowNs();
        }
        rates.push_back((Sha256::compressionCount() - c0) /
                        ((t1 - t0) / 1e9));
    }
    return median(rates);
}

/** The inputs one real signature feeds to FORS and layer 0. */
struct SignInputs
{
    ByteVec forsMsg;
    uint64_t idxTree = 0;
    uint32_t idxLeaf = 0;
};

SignInputs
signInputs(const Context &ctx, const SecretKey &sk, ByteSpan msg)
{
    const Params &p = ctx.params();
    uint8_t r[maxN];
    prfMsg(r, ctx, sk.skPrf, sk.pkSeed, msg);
    ByteVec digest(p.msgDigestBytes());
    hashMessage(digest, ctx, ByteSpan(r, p.n), sk.pkRoot, msg);
    DigestSplit split = splitDigest(p, digest);
    return {split.forsMsg, split.idxTree, split.idxLeaf};
}

/** The sphincs layer for one parameter set; fills @p m. */
void
probeParamSet(const Params &p, double lanes_comp_per_s, SpanLog &spans,
              uint64_t parent, Metrics &m, std::vector<std::string> &flags)
{
    // "SPHINCS+-128f" -> ".128f"
    std::string sfx = p.name.substr(p.name.rfind('-'));
    sfx[0] = '.';
    const SphincsPlus scheme(p);
    Rng rng(0x5eed0000 + p.n);
    const KeyPair kp = scheme.keygen(rng);
    const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
    const ByteVec msg = rng.bytes(32);

    // Exact compression counts on this thread.
    uint64_t c0 = Sha256::compressionCount();
    const ByteVec sig = scheme.sign(ctx, msg, kp.sk);
    const double perSign = Sha256::compressionCount() - c0;
    c0 = Sha256::compressionCount();
    if (!scheme.verify(ctx, msg, sig, kp.pk))
        flags.push_back("probe: " + p.name + " signature does not verify");
    const double perVerify = Sha256::compressionCount() - c0;
    m.add("hash.comp_per_sign" + sfx, perSign, "count");
    m.add("hash.comp_per_verify" + sfx, perVerify, "count");
    const double roofline = lanes_comp_per_s / perSign;
    m.add("hash.roofline_sign_per_s" + sfx, roofline, "1/s");

    const double signMs = medianMs(spans, parent, "SphincsPlus::sign", 5,
                                   0.4, [&] { scheme.sign(ctx, msg, kp.sk); });
    m.add("sphincs.sign_ms" + sfx, signMs, "ms");
    m.add("sphincs.sign_roofline_frac" + sfx, 1e3 / roofline / signMs,
          "frac");

    const SignInputs in = signInputs(ctx, kp.sk, msg);
    Address forsAdrs;
    forsAdrs.setLayer(0);
    forsAdrs.setTree(in.idxTree);
    forsAdrs.setType(AddrType::ForsTree);
    forsAdrs.setKeypair(in.idxLeaf);
    ByteVec forsSig(p.forsSigBytes());
    uint8_t forsRoot[maxN];
    m.add("sphincs.fors_ms" + sfx,
          medianMs(spans, parent, "forsSign", 5, 0.2,
                   [&] {
                       forsSign(forsSig.data(), forsRoot, in.forsMsg.data(),
                                ctx, forsAdrs);
                   }),
          "ms");
    ByteVec layerSig(p.xmssSigBytes());
    uint8_t layerRoot[maxN];
    m.add("sphincs.xmss_layer_ms" + sfx,
          medianMs(spans, parent, "merkleSign", 5, 0.2,
                   [&] {
                       merkleSign(layerSig.data(), layerRoot, ctx, 0,
                                  in.idxTree, in.idxLeaf, forsRoot);
                   }),
          "ms");
    // The probe's FORS and layer-0 outputs must be the signature's.
    const size_t forsAt = p.n;
    if (std::memcmp(forsSig.data(), sig.data() + forsAt, forsSig.size()) ||
        std::memcmp(layerSig.data(), sig.data() + forsAt + forsSig.size(),
                    layerSig.size()))
        flags.push_back("probe: " + p.name +
                        " FORS/layer output differs from sign()");

    m.add("sphincs.verify_ms" + sfx,
          medianMs(spans, parent, "SphincsPlus::verify", 9, 0.2,
                   [&] { scheme.verify(ctx, msg, sig, kp.pk); }),
          "ms");

    // verifyBatch over one full lane group of distinct signatures.
    const unsigned width = herosign::laneDispatch().width;
    std::vector<ByteVec> msgs(width), sigs(width);
    std::vector<ByteSpan> ms(width), ss(width);
    for (unsigned i = 0; i < width; ++i)
        msgs[i] = rng.bytes(32);
    for (unsigned i = 0; i < width; ++i)
        ms[i] = msgs[i];
    herosign::batch::LaneScheduler::signGroup(ctx, kp.sk, ms.data(), nullptr,
                                              sigs.data(), width);
    for (unsigned i = 0; i < width; ++i)
        ss[i] = sigs[i];
    bool ok[herosign::maxSha256Lanes] = {};
    const double batchMs =
        medianMs(spans, parent, "SphincsPlus::verifyBatch", 5, 0.2, [&] {
            scheme.verifyBatch(ctx, ms.data(), ss.data(), kp.pk, ok, width);
        });
    if (!std::all_of(ok, ok + width, [](bool b) { return b; }))
        flags.push_back("probe: " + p.name + " verifyBatch rejected");
    m.add("sphincs.verify_batch_ms_per_sig" + sfx, batchMs / width, "ms");

    m.add("sphincs.keygen_ms" + sfx,
          medianMs(spans, parent, "SphincsPlus::keygen", 5, 0.2,
                   [&] { scheme.keygen(rng); }),
          "ms");
}

} // namespace

Metrics
runProbes(SpanLog &spans, std::vector<std::string> &flags)
{
    Metrics m;
    ScopedSpan root(spans, "probes");

    // hash: raw single-block rates through the lane engine at the
    // dispatched width and through the scalar hasher.
    const Params &p128 = Params::sphincs128f();
    Rng rng(0x5eed);
    const ByteVec seed = rng.bytes(p128.n);
    const Context ctx(p128, seed, {});
    const Sha256State st = ctx.seededState();
    const size_t inLen = Address::compressedSize + p128.n;
    const unsigned width = herosign::laneDispatch().width;

    double lanes = 0;
    {
        ScopedSpan sp(spans, "probe.hash", root.id());
        uint8_t buf[herosign::maxSha256Lanes][64] = {};
        const uint8_t *in[herosign::maxSha256Lanes];
        uint8_t *out[herosign::maxSha256Lanes];
        for (unsigned l = 0; l < width; ++l) {
            buf[l][0] = static_cast<uint8_t>(l);
            in[l] = buf[l];
            out[l] = buf[l] + Address::compressedSize;
        }
        lanes = compressionsPerSecond(spans, sp.id(), "Sha256Lanes", [&] {
            Sha256Lanes h(width, st);
            h.update(in, inLen);
            uint8_t dig[herosign::maxSha256Lanes][32];
            uint8_t *d[herosign::maxSha256Lanes];
            for (unsigned l = 0; l < width; ++l)
                d[l] = dig[l];
            h.final(d);
            for (unsigned l = 0; l < width; ++l)
                std::memcpy(out[l], dig[l], p128.n);
        });
        uint8_t one[64] = {};
        const double scalar =
            compressionsPerSecond(spans, sp.id(), "Sha256", [&] {
                Sha256 h(st);
                h.update(ByteSpan(one, inLen));
                uint8_t dig[32];
                h.final(dig);
                std::memcpy(one + Address::compressedSize, dig, p128.n);
            });
        m.add("hash.comp_per_s.lanes", lanes, "1/s");
        m.add("hash.comp_per_s.scalar", scalar, "1/s");
    }

    {
        ScopedSpan sp(spans, "probe.sphincs", root.id());
        probeParamSet(p128, lanes, spans, sp.id(), m, flags);
        probeParamSet(Params::sphincs256f(), lanes, spans, sp.id(), m, flags);
    }

    {
        // batch: one LaneScheduler group of preferredGroup() messages
        // and a group of one, under one warm 128f context.
        ScopedSpan sp(spans, "probe.batch", root.id());
        const SphincsPlus scheme(p128);
        const KeyPair kp = scheme.keygen(rng);
        const Context sctx(p128, kp.sk.pkSeed, kp.sk.skSeed);
        const unsigned g = herosign::batch::LaneScheduler::preferredGroup();
        std::vector<ByteVec> msgs(g), sigs(g);
        std::vector<ByteSpan> ms(g);
        for (unsigned i = 0; i < g; ++i) {
            msgs[i] = rng.bytes(32);
            ms[i] = msgs[i];
        }
        const double groupMs = medianMs(
            spans, sp.id(), "LaneScheduler::signGroup", 5, 0.5, [&] {
                herosign::batch::LaneScheduler::signGroup(
                    sctx, kp.sk, ms.data(), nullptr, sigs.data(), g);
            });
        m.add("batch.group_ms_per_sig.128f", groupMs / g, "ms");
        m.add("batch.group1_ms.128f",
              medianMs(spans, sp.id(), "LaneScheduler::signGroup1", 5, 0.2,
                       [&] {
                           herosign::batch::LaneScheduler::signGroup(
                               sctx, kp.sk, ms.data(), nullptr, sigs.data(),
                               1);
                       }),
              "ms");
        if (sigs[0] != scheme.sign(msgs[0], kp.sk))
            flags.push_back("probe: LaneScheduler group differs from sign()");
    }

    {
        // telemetry: the cost of one histogram record on a hot path.
        ScopedSpan sp(spans, "probe.telemetry", root.id());
        herosign::telemetry::LatencyHistogram h;
        std::vector<double> ns;
        uint64_t v = 12345;
        for (int rep = 0; rep < 7; ++rep) {
            ScopedSpan rs(spans, "LatencyHistogram::record", sp.id());
            constexpr int kRecords = 1 << 20;
            const int64_t t0 = nowNs();
            for (int i = 0; i < kRecords; ++i) {
                v = v * 6364136223846793005ull + 1442695040888963407ull;
                h.record(v >> 40);
            }
            ns.push_back(static_cast<double>(nowNs() - t0) / kRecords);
        }
        if (h.snapshot().count != 7ull << 20)
            flags.push_back("probe: histogram lost records");
        m.add("telemetry.record_ns", median(ns), "ns");
    }
    return m;
}

} // namespace perfbench
