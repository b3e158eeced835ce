/**
 * @file
 * Batched tweakable-hash layer tests: thashFX/prfAddrX against the
 * scalar calls (full, partial and 16-lane batches), padded ragged
 * tails at every lane count and tier (digests, real-lane-only
 * compression charges, the simd-lane fault seam), the batched
 * WOTS+/FORS leaf generators (and the in-walk WOTS+ signature
 * capture) against scalar reconstructions from the remaining scalar
 * building blocks, and end-to-end sign/verify byte-equality plus
 * compression-count parity across the AVX-512 (width 16), AVX2
 * (width 8) and portable backends.
 */

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "lane_tiers.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;
using herosign::sphincs::test::LaneTier;
using herosign::sphincs::test::laneTiers;
using herosign::sphincs::test::ScopedTier;

namespace
{

Context
makeContext(const Params &p, uint64_t seed)
{
    Rng rng(seed);
    ByteVec pk_seed = rng.bytes(p.n);
    ByteVec sk_seed = rng.bytes(p.n);
    return Context(p, pk_seed, sk_seed);
}

TEST(ThashX, FullBatchMatchesScalarF)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 1);
    Rng rng(2);

    Address adrs[maxHashLanes];
    ByteVec inputs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    uint8_t out[maxHashLanes][maxN];
    uint8_t *outs[maxHashLanes];
    for (unsigned l = 0; l < maxHashLanes; ++l) {
        adrs[l].setLayer(l);
        adrs[l].setTree(100 + l);
        adrs[l].setType(AddrType::WotsHash);
        adrs[l].setChain(l);
        adrs[l].setHash(2 * l);
        inputs[l] = rng.bytes(p.n);
        ins[l] = inputs[l].data();
        outs[l] = out[l];
    }
    thashFX(outs, ctx, adrs, ins, maxHashLanes);

    for (unsigned l = 0; l < maxHashLanes; ++l) {
        uint8_t expected[maxN];
        thashF(expected, ctx, adrs[l], inputs[l].data());
        EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                  hexEncode(ByteSpan(expected, p.n)))
            << "lane " << l;
    }
}

TEST(ThashX, PrfBatchMatchesScalar)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 7);

    Address adrs[maxHashLanes];
    uint8_t out[maxHashLanes][maxN];
    uint8_t *outs[maxHashLanes];
    for (unsigned l = 0; l < maxHashLanes; ++l) {
        adrs[l].setType(AddrType::WotsPrf);
        adrs[l].setKeypair(3);
        adrs[l].setChain(l);
        outs[l] = out[l];
    }
    prfAddrX(outs, ctx, adrs, maxHashLanes);

    for (unsigned l = 0; l < maxHashLanes; ++l) {
        uint8_t expected[maxN];
        prfAddr(expected, ctx, adrs[l]);
        EXPECT_EQ(hexEncode(ByteSpan(out[l], p.n)),
                  hexEncode(ByteSpan(expected, p.n)));
    }
}

/**
 * One thashX batch of @p count lanes against per-lane scalar thash
 * calls: equal digests, and a compression charge of count times the
 * blocks one scalar call takes.
 */
void
expectBatchMatchesScalar(const Context &ctx, size_t in_len,
                         unsigned count, Rng &rng)
{
    const unsigned n = ctx.params().n;
    Address adrs[maxHashLanes];
    ByteVec inputs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    uint8_t out[maxHashLanes][maxN];
    uint8_t *outs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        adrs[l].setType(AddrType::ForsTree);
        adrs[l].setTreeHeight(1);
        adrs[l].setTreeIndex(count * 100 + l);
        inputs[l] = rng.bytes(in_len);
        ins[l] = inputs[l].data();
        outs[l] = out[l];
    }

    uint8_t expected[maxHashLanes][maxN];
    Sha256::resetCompressionCount();
    thash(expected[0], ctx, adrs[0], inputs[0]);
    const uint64_t blocks = Sha256::compressionCount();
    for (unsigned l = 1; l < count; ++l)
        thash(expected[l], ctx, adrs[l], inputs[l]);

    Sha256::resetCompressionCount();
    thashX(outs, ctx, adrs, ins, in_len, count);
    EXPECT_EQ(Sha256::compressionCount(), count * blocks);
    for (unsigned l = 0; l < count; ++l)
        EXPECT_EQ(hexEncode(ByteSpan(out[l], n)),
                  hexEncode(ByteSpan(expected[l], n)))
            << "lane " << l;
}

TEST(ThashX, PartialBatchesMatchScalar)
{
    // F/PRF inputs (n bytes) fit one block on the seeded mid-state;
    // H inputs (2n) take one block at n = 16 and two at n = 24, 32;
    // T_len inputs (len * n) take many. Every count 1..16 covers the
    // lone scalar lane, padded x8 and x16 tails, and full calls
    // followed by a padded tail.
    Rng rng(32);
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        for (const Params *pp : {&Params::sphincs128f(),
                                 &Params::sphincs192f(),
                                 &Params::sphincs256f()}) {
            const Params &p = *pp;
            Context ctx = makeContext(p, 31);
            for (size_t in_len : {static_cast<size_t>(p.n),
                                  2 * static_cast<size_t>(p.n),
                                  static_cast<size_t>(p.wotsLen()) * p.n})
                for (unsigned count = 1; count <= maxHashLanes; ++count) {
                    SCOPED_TRACE(std::string(tier.name) + " " + p.name +
                                 " in_len " + std::to_string(in_len) +
                                 " count " + std::to_string(count));
                    expectBatchMatchesScalar(ctx, in_len, count, rng);
                }
        }
    }
}

TEST(ThashX, SimdLaneFaultCorruptsExactlyOneRealLaneOfPaddedTail)
{
    if (laneDispatch().backend == LaneBackend::Scalar)
        GTEST_SKIP() << "needs an active SIMD tier (a 3-lane batch "
                        "runs scalar without one)";
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 33);
    Rng rng(34);

    // A 3-lane batch is all tail: one padded call, no scalar lane.
    constexpr unsigned count = 3;
    Address adrs[count];
    ByteVec inputs[count];
    const uint8_t *ins[count];
    uint8_t out[count][maxN];
    uint8_t *outs[count];
    uint8_t expected[count][maxN];
    for (unsigned l = 0; l < count; ++l) {
        adrs[l].setType(AddrType::WotsHash);
        adrs[l].setChain(l);
        inputs[l] = rng.bytes(p.n);
        ins[l] = inputs[l].data();
        outs[l] = out[l];
        thashF(expected[l], ctx, adrs[l], inputs[l].data());
    }

    FaultPlan plan;
    plan.rule(FaultPoint::SimdLane).active = true;
    FaultInjector::instance().arm(plan);
    thashFX(outs, ctx, adrs, ins, count);
    const uint64_t fired =
        FaultInjector::instance().fired(FaultPoint::SimdLane);
    FaultInjector::instance().disarm();

    EXPECT_EQ(fired, 1u);
    unsigned corrupted = 0;
    for (unsigned l = 0; l < count; ++l)
        corrupted += std::memcmp(out[l], expected[l], p.n) != 0;
    EXPECT_EQ(corrupted, 1u);
}

TEST(ThashX, RejectsBadCounts)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 8);
    Address adrs[1];
    uint8_t buf[maxN];
    uint8_t *outs[1] = {buf};
    const uint8_t *ins[1] = {buf};
    EXPECT_THROW(thashX(outs, ctx, adrs, ins, p.n, 0),
                 std::invalid_argument);
    EXPECT_THROW(thashX(outs, ctx, adrs, ins, p.n, maxHashLanes + 1),
                 std::invalid_argument);
    EXPECT_THROW(prfAddrX(outs, ctx, adrs, 0), std::invalid_argument);
    EXPECT_THROW(prfAddrX(outs, ctx, adrs, maxHashLanes + 1),
                 std::invalid_argument);
}

/**
 * Reference WOTS+ leaf built only from the scalar building blocks
 * (wotsChainSk + genChain + thash), mirroring the pre-batching
 * implementation.
 */
void
scalarWotsLeaf(uint8_t *pk_out, const Context &ctx, uint32_t layer,
               uint64_t tree, uint32_t keypair)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;

    Address prf_adrs;
    prf_adrs.setLayer(layer);
    prf_adrs.setTree(tree);
    prf_adrs.setType(AddrType::WotsPrf);
    prf_adrs.setKeypair(keypair);
    Address hash_adrs;
    hash_adrs.setLayer(layer);
    hash_adrs.setTree(tree);
    hash_adrs.setType(AddrType::WotsHash);
    hash_adrs.setKeypair(keypair);

    uint8_t chains[maxWotsLen * maxN];
    for (unsigned i = 0; i < len; ++i) {
        uint8_t sk[maxN];
        wotsChainSk(sk, ctx, prf_adrs, i);
        hash_adrs.setChain(i);
        genChain(chains + i * n, sk, 0, p.wotsW - 1, ctx, hash_adrs);
    }

    Address pk_adrs;
    pk_adrs.setLayer(layer);
    pk_adrs.setTree(tree);
    pk_adrs.setType(AddrType::WotsPk);
    pk_adrs.setKeypair(keypair);
    thash(pk_out, ctx, pk_adrs, ByteSpan(chains, len * n));
}

TEST(BatchedLeaves, WotsLeafBatchMatchesScalarComposition)
{
    for (const Params *pp : {&Params::sphincs128f(),
                             &Params::sphincs192f(),
                             &Params::sphincs256f()}) {
        const Params &p = *pp;
        Context ctx = makeContext(p, 11);
        Rng rng(12);

        // Mixed layers, trees and keypairs in one call; every third
        // request also captures a WOTS+ signature.
        for (unsigned count : {1u, 3u, 8u, 11u, 16u, 35u}) {
            std::vector<WotsLeafReq> reqs(count);
            std::vector<uint8_t> pks(count * p.n);
            std::vector<ByteVec> msgs(count), sigs(count);
            std::vector<std::vector<uint32_t>> lengths(count);
            for (unsigned j = 0; j < count; ++j) {
                reqs[j].layer = j % 3;
                reqs[j].tree = 77 + j % 2;
                reqs[j].keypair = 4 + j;
                reqs[j].leafOut = pks.data() + j * p.n;
                if (j % 3 == 0) {
                    msgs[j] = rng.bytes(p.n);
                    sigs[j].resize(p.wotsSigBytes());
                    lengths[j].resize(p.wotsLen());
                    chainLengths(lengths[j].data(), p, msgs[j].data());
                    reqs[j].sigOut = sigs[j].data();
                    reqs[j].lengths = lengths[j].data();
                }
            }
            wotsLeafBatch(ctx, reqs.data(), count);
            for (unsigned j = 0; j < count; ++j) {
                SCOPED_TRACE(p.name + " count " + std::to_string(count) +
                             " leaf " + std::to_string(j));
                uint8_t expected[maxN];
                scalarWotsLeaf(expected, ctx, reqs[j].layer,
                               reqs[j].tree, reqs[j].keypair);
                EXPECT_EQ(hexEncode(ByteSpan(pks.data() + j * p.n, p.n)),
                          hexEncode(ByteSpan(expected, p.n)));
                if (!reqs[j].sigOut)
                    continue;
                Address adrs;
                adrs.setLayer(reqs[j].layer);
                adrs.setTree(reqs[j].tree);
                adrs.setType(AddrType::WotsHash);
                adrs.setKeypair(reqs[j].keypair);
                ByteVec want(p.wotsSigBytes());
                wotsSign(want.data(), msgs[j].data(), ctx, adrs);
                EXPECT_EQ(hexEncode(sigs[j]), hexEncode(want));
            }
        }
    }
}

TEST(BatchedLeaves, ForsLeafBatchMatchesScalar)
{
    const Params &p = Params::sphincs128f();
    Context ctx = makeContext(p, 13);

    Address fors_adrs;
    fors_adrs.setLayer(0);
    fors_adrs.setTree(5);
    fors_adrs.setType(AddrType::ForsTree);
    fors_adrs.setKeypair(9);

    for (unsigned count : {1u, 5u, 8u, 13u, 16u, 35u}) {
        std::vector<uint8_t> leaves(count * p.n);
        std::vector<ForsLeafReq> reqs(count);
        for (unsigned j = 0; j < count; ++j) {
            reqs[j].adrs = fors_adrs;
            reqs[j].idx = 40 + j;
            reqs[j].out = leaves.data() + j * p.n;
        }
        forsLeafBatch(ctx, reqs.data(), count);
        for (unsigned j = 0; j < count; ++j) {
            uint8_t expected[maxN];
            forsGenLeaf(expected, ctx, fors_adrs, 40 + j);
            EXPECT_EQ(
                hexEncode(ByteSpan(leaves.data() + j * p.n, p.n)),
                hexEncode(ByteSpan(expected, p.n)))
                << "count " << count << " leaf " << j;
        }
    }
}

/**
 * Sign/keygen under a specific lane configuration, returning the
 * signature, pk root and compression count of the sign() call.
 */
struct ModeResult
{
    ByteVec sig;
    ByteVec pkRoot;
    uint64_t signCompressions;
    bool verified;
};

ModeResult
runMode(const Params &p, const ByteVec &seed, const ByteVec &msg,
        const LaneTier &tier)
{
    SphincsPlus scheme(p);
    ScopedTier pin(tier);
    auto kp = scheme.keygenFromSeed(seed);
    Sha256::resetCompressionCount();
    ModeResult r;
    r.sig = scheme.sign(msg, kp.sk);
    r.signCompressions = Sha256::compressionCount();
    r.pkRoot = ByteVec(kp.pk.pkRoot.begin(), kp.pk.pkRoot.end());
    r.verified = scheme.verify(msg, r.sig, kp.pk);
    return r;
}

TEST(BackendEquivalence, SignaturesByteIdenticalAcrossAllWidths)
{
    // Cross-width byte-identity on every Table I set: the scalar
    // path, the width-8 path (AVX-512 disabled) and the full
    // dispatched path (width 16 where the host supports it) must
    // produce identical keys, identical signatures, identical verify
    // verdicts and identical compression counts.
    for (const Params *pp : {&Params::sphincs128f(),
                             &Params::sphincs192f(),
                             &Params::sphincs256f()}) {
        const Params &p = *pp;
        Rng rng(23);
        ByteVec seed = rng.bytes(3 * p.n);
        ByteVec msg = rng.bytes(57);

        ModeResult scalar = runMode(p, seed, msg, laneTiers[0]);
        ModeResult x8 = runMode(p, seed, msg, laneTiers[1]);
        ModeResult widest = runMode(p, seed, msg, laneTiers[2]);

        EXPECT_EQ(hexEncode(scalar.pkRoot), hexEncode(x8.pkRoot))
            << p.name;
        EXPECT_EQ(hexEncode(scalar.pkRoot), hexEncode(widest.pkRoot))
            << p.name;
        EXPECT_EQ(hexEncode(scalar.sig), hexEncode(x8.sig)) << p.name;
        EXPECT_EQ(hexEncode(scalar.sig), hexEncode(widest.sig))
            << p.name;
        EXPECT_TRUE(scalar.verified) << p.name;
        EXPECT_TRUE(x8.verified) << p.name;
        EXPECT_TRUE(widest.verified) << p.name;
        EXPECT_EQ(scalar.signCompressions, x8.signCompressions)
            << p.name;
        EXPECT_EQ(scalar.signCompressions, widest.signCompressions)
            << p.name;
    }
}

TEST(BackendEquivalence, CrossBackendVerifyAgrees)
{
    // A signature produced at the widest dispatch verifies on the
    // scalar path and vice versa.
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    Rng rng(27);
    ByteVec seed = rng.bytes(3 * p.n);
    ByteVec msg = rng.bytes(33);

    auto kp = scheme.keygenFromSeed(seed);
    ByteVec sig_auto = scheme.sign(msg, kp.sk);

    sha256LanesSetCeiling(LaneBackend::Scalar);
    auto kp_scalar = scheme.keygenFromSeed(seed);
    ByteVec sig_scalar = scheme.sign(msg, kp_scalar.sk);
    const bool verify_scalar = scheme.verify(msg, sig_auto, kp.pk);
    sha256LanesSetCeiling(LaneBackend::Avx512);

    EXPECT_EQ(hexEncode(kp.pk.pkRoot), hexEncode(kp_scalar.pk.pkRoot));
    EXPECT_EQ(hexEncode(sig_auto), hexEncode(sig_scalar));
    EXPECT_TRUE(verify_scalar);
    EXPECT_TRUE(scheme.verify(msg, sig_scalar, kp.pk));
}

} // namespace
