/**
 * @file
 * Batched lane-parallel verification equivalence: verifyBatch must be
 * bool-identical to the scalar reference walk (reference_verify.hh)
 * for every lane composition — full and ragged groups, mixed
 * valid/invalid lanes, malformed lengths — on the AVX-512 (width 16),
 * AVX2 (width 8) and forced-scalar hash backends; verify(), a group of
 * one, must match that reference in verdict and compression count;
 * and the kernel-level XN primitives must be byte-identical to their
 * scalar counterparts at every lane count 1..16.
 * Golden-vector checks pin the real Table I parameter sets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "../batch/batch_test_util.hh"
#include "common/hex.hh"
#include "hash/sha256xN.hh"
#include "lane_tiers.hh"
#include "reference_verify.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;
using batchtest::miniParams;
using batchtest::patternMsg;
using test::laneTiers;
using test::referenceVerify;
using test::ScopedTier;

namespace
{

std::vector<bool>
runVerifyBatch(const SphincsPlus &scheme, const PublicKey &pk,
               const std::vector<ByteVec> &msgs,
               const std::vector<ByteVec> &sigs)
{
    std::vector<ByteSpan> m(msgs.size());
    std::vector<ByteSpan> s(sigs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
        m[i] = ByteSpan(msgs[i]);
        s[i] = ByteSpan(sigs[i]);
    }
    Context ctx(scheme.params(), pk.pkSeed, {});
    std::unique_ptr<bool[]> ok(new bool[msgs.size()]);
    scheme.verifyBatch(ctx, m.data(), s.data(), pk, ok.get(),
                       msgs.size());
    return std::vector<bool>(ok.get(), ok.get() + msgs.size());
}

void
expectBatchMatchesScalar(const SphincsPlus &scheme, const PublicKey &pk,
                         const std::vector<ByteVec> &msgs,
                         const std::vector<ByteVec> &sigs)
{
    auto batch = runVerifyBatch(scheme, pk, msgs, sigs);
    Context ctx(scheme.params(), pk.pkSeed, {});
    for (size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(batch[i], referenceVerify(ctx, msgs[i], sigs[i], pk))
            << "lane " << i;
    }
}

} // namespace

TEST(VerifyBatch, RaggedCountsMatchScalarOnMini)
{
    const auto p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));

    std::vector<ByteVec> msgs, sigs;
    for (unsigned i = 0; i < 19; ++i) {
        msgs.push_back(patternMsg(36, static_cast<uint8_t>(i)));
        sigs.push_back(scheme.sign(msgs.back(), kp.sk));
    }
    // Every group shape from 1 lane to beyond one full group at both
    // candidate widths (8 and 16).
    for (unsigned count : {1u, 2u, 7u, 8u, 9u, 11u, 15u, 16u, 19u}) {
        std::vector<ByteVec> m(msgs.begin(), msgs.begin() + count);
        std::vector<ByteVec> s(sigs.begin(), sigs.begin() + count);
        expectBatchMatchesScalar(scheme, kp.pk, m, s);
        auto ok = runVerifyBatch(scheme, kp.pk, m, s);
        for (unsigned i = 0; i < count; ++i)
            EXPECT_TRUE(ok[i]) << count << "/" << i;
    }
}

TEST(VerifyBatch, MixedValidInvalidAndMalformedLanes)
{
    const auto p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
    auto other = scheme.keygenFromSeed(batchtest::fixedSeed(p, 0x40));

    std::vector<ByteVec> msgs, sigs;
    for (unsigned i = 0; i < 10; ++i) {
        msgs.push_back(patternMsg(28, static_cast<uint8_t>(i)));
        sigs.push_back(scheme.sign(msgs.back(), kp.sk));
    }
    sigs[0][5] ^= 0x10;                  // corrupted randomizer
    sigs[2].clear();                     // empty -> length reject
    sigs[3] = scheme.sign(msgs[3], other.sk); // wrong key
    // pop_back rather than resize(size()-3): GCC's -O2+ASan
    // stringop-overflow analysis flags the (dead) grow path of a
    // shrinking resize it cannot prove shrinks.
    for (int t = 0; t < 3; ++t) // truncated
        sigs[5].pop_back();
    sigs[6].push_back(0);                // extended
    msgs[8][1] ^= 0x80;                  // message mismatch

    expectBatchMatchesScalar(scheme, kp.pk, msgs, sigs);
    auto ok = runVerifyBatch(scheme, kp.pk, msgs, sigs);
    EXPECT_EQ(ok, (std::vector<bool>{false, true, false, false, true,
                                     false, false, true, false, true}));

    // Same verdicts on the portable scalar lanes.
    ScopedTier guard(laneTiers[0]);
    expectBatchMatchesScalar(scheme, kp.pk, msgs, sigs);
    EXPECT_EQ(runVerifyBatch(scheme, kp.pk, msgs, sigs), ok);
}

TEST(VerifyBatch, WarmContextOverloadAndMismatchThrows)
{
    const auto p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
    auto other = scheme.keygenFromSeed(batchtest::fixedSeed(p, 0x23));

    ByteVec msg = patternMsg(32);
    ByteVec sig = scheme.sign(msg, kp.sk);
    Context ctx(p, kp.pk.pkSeed, {});

    ByteSpan m(msg), s(sig);
    bool ok = false;
    scheme.verifyBatch(ctx, &m, &s, kp.pk, &ok, 1);
    EXPECT_TRUE(ok);
    EXPECT_TRUE(scheme.verify(ctx, msg, sig, kp.pk));

    // Context bound to the wrong public key is a programming error.
    Context wrong(p, other.pk.pkSeed, {});
    EXPECT_THROW(scheme.verifyBatch(wrong, &m, &s, kp.pk, &ok, 1),
                 std::invalid_argument);
    EXPECT_THROW(scheme.verify(wrong, msg, sig, kp.pk),
                 std::invalid_argument);
    // Signing with a mismatched warm context is equally rejected.
    Context sign_ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
    EXPECT_THROW(scheme.sign(sign_ctx, msg, other.sk),
                 std::invalid_argument);
    EXPECT_EQ(scheme.sign(sign_ctx, msg, kp.sk),
              scheme.sign(msg, kp.sk));
}

TEST(VerifyBatch, VerifyOfOneMatchesReferenceVerdictAndCompressions)
{
    // verify() is verifyBatch() of one: it must reach the reference
    // walk's verdict with exactly the reference's hash work, on a good
    // signature and on a corruption in each signature region.
    const Params mini = miniParams();
    for (const Params *p : {&mini, &Params::sphincs128f(),
                            &Params::sphincs192f(),
                            &Params::sphincs256f()}) {
        SphincsPlus scheme(*p);
        auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(*p));
        const ByteVec msg = patternMsg(33);
        const ByteVec good = scheme.sign(msg, kp.sk);
        Context ctx(*p, kp.pk.pkSeed, {});

        const size_t n = p->n;
        const size_t fors_end = n + p->forsSigBytes();
        const std::pair<const char *, size_t> flips[] = {
            {"randomizer R", 0},
            {"FORS", n + p->forsSigBytes() / 2},
            {"bottom WOTS+ chain", fors_end + n * (p->wotsLen() / 2)},
            {"top auth path", good.size() - 1},
        };
        std::vector<std::pair<std::string, ByteVec>> cases{
            {"good", good}};
        for (const auto &[region, at] : flips) {
            ByteVec bad = good;
            bad[at] ^= 0x20;
            cases.emplace_back(region, std::move(bad));
        }

        for (const auto &tier : laneTiers) {
            ScopedTier pin(tier);
            for (const auto &[name, sig] : cases) {
                const uint64_t c0 = Sha256::compressionCount();
                const bool ref = referenceVerify(ctx, msg, sig, kp.pk);
                const uint64_t c1 = Sha256::compressionCount();
                const bool got = scheme.verify(ctx, msg, sig, kp.pk);
                const uint64_t c2 = Sha256::compressionCount();
                // The reference must still tell good from corrupted,
                // or agreeing with it would prove nothing.
                EXPECT_EQ(ref, name == "good")
                    << p->name << " " << tier.name << " " << name;
                EXPECT_EQ(got, ref)
                    << p->name << " " << tier.name << " " << name;
                EXPECT_EQ(c2 - c1, c1 - c0)
                    << p->name << " " << tier.name << " " << name;
            }
        }
    }
}

TEST(VerifyBatch, KernelPrimitivesByteIdenticalToScalar)
{
    const auto p = miniParams();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
    const unsigned n = p.n;

    // Sixteen WOTS keypairs: sign a message each, then recompute the
    // leaf batched (every greedy-split shape) and scalar and compare
    // bytes.
    uint8_t sigs[16][maxWotsLen * maxN];
    uint8_t msgs[16][maxN];
    Address adrs[16];
    const uint8_t *sig_ptrs[16];
    const uint8_t *msg_ptrs[16];
    uint8_t batch_pk[16][maxN];
    uint8_t *batch_ptrs[16];
    for (unsigned l = 0; l < 16; ++l) {
        for (unsigned b = 0; b < n; ++b)
            msgs[l][b] = static_cast<uint8_t>(l * 31 + b);
        adrs[l].setLayer(l % p.layers);
        adrs[l].setTree(l);
        adrs[l].setType(AddrType::WotsHash);
        adrs[l].setKeypair(l + 1);
        wotsSign(sigs[l], msgs[l], ctx, adrs[l]);
        sig_ptrs[l] = sigs[l];
        msg_ptrs[l] = msgs[l];
        batch_ptrs[l] = batch_pk[l];
    }
    for (unsigned count : {1u, 3u, 8u, 11u, 16u}) {
        wotsPkFromSigXN(batch_ptrs, sig_ptrs, msg_ptrs, ctx, adrs,
                        count);
        for (unsigned l = 0; l < count; ++l) {
            uint8_t ref[maxN];
            wotsPkFromSig(ref, sigs[l], msgs[l], ctx, adrs[l]);
            EXPECT_EQ(hexEncode(ByteSpan(batch_pk[l], n)),
                      hexEncode(ByteSpan(ref, n)))
                << "count " << count << " lane " << l;
        }
    }

    // FORS: sign under 16 distinct addresses, recompute batched.
    const size_t fors_sig = p.forsSigBytes();
    std::vector<ByteVec> fsigs(16);
    uint8_t fmsgs[16][32];
    Address fadrs[16];
    const uint8_t *fsig_ptrs[16];
    const uint8_t *fmsg_ptrs[16];
    uint8_t froot_batch[16][maxN];
    uint8_t *froot_ptrs[16];
    for (unsigned l = 0; l < 16; ++l) {
        for (size_t b = 0; b < p.forsMsgBytes(); ++b)
            fmsgs[l][b] = static_cast<uint8_t>(5 * l + 3 * b + 1);
        fadrs[l].setLayer(0);
        fadrs[l].setTree(2 * l + 1);
        fadrs[l].setType(AddrType::ForsTree);
        fadrs[l].setKeypair(l);
        fsigs[l].resize(fors_sig);
        uint8_t root[maxN];
        forsSign(fsigs[l].data(), root, fmsgs[l], ctx, fadrs[l]);
        fsig_ptrs[l] = fsigs[l].data();
        fmsg_ptrs[l] = fmsgs[l];
        froot_ptrs[l] = froot_batch[l];
    }
    for (unsigned count : {1u, 5u, 8u, 13u, 16u}) {
        forsPkFromSigXN(froot_ptrs, fsig_ptrs, fmsg_ptrs, ctx, fadrs,
                        count);
        for (unsigned l = 0; l < count; ++l) {
            uint8_t ref[maxN];
            forsPkFromSig(ref, fsigs[l].data(), fmsgs[l], ctx,
                          fadrs[l]);
            EXPECT_EQ(hexEncode(ByteSpan(froot_batch[l], n)),
                      hexEncode(ByteSpan(ref, n)))
                << "count " << count << " lane " << l;
        }
    }
}

class VerifyBatchGolden : public ::testing::TestWithParam<const Params *>
{
};

TEST_P(VerifyBatchGolden, TableISetsMatchScalarOnBothBackends)
{
    const Params &p = *GetParam();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    auto kp = scheme.keygenFromSeed(seed);

    const std::string txt = "HERO-Sign golden vector";
    std::vector<ByteVec> msgs;
    std::vector<ByteVec> sigs;
    // The golden fixture message plus derived ones, and one tamper.
    for (unsigned i = 0; i < 4; ++i) {
        ByteVec m(txt.begin(), txt.end());
        m.push_back(static_cast<uint8_t>(i));
        msgs.push_back(std::move(m));
        sigs.push_back(scheme.sign(msgs.back(), kp.sk));
    }
    sigs[2][sigs[2].size() / 2] ^= 0x04;

    expectBatchMatchesScalar(scheme, kp.pk, msgs, sigs);
    auto avx = runVerifyBatch(scheme, kp.pk, msgs, sigs);
    EXPECT_EQ(avx,
              (std::vector<bool>{true, true, false, true}));

    ScopedTier guard(laneTiers[0]);
    expectBatchMatchesScalar(scheme, kp.pk, msgs, sigs);
    EXPECT_EQ(runVerifyBatch(scheme, kp.pk, msgs, sigs), avx);
}

INSTANTIATE_TEST_SUITE_P(TableI, VerifyBatchGolden,
                         ::testing::Values(&Params::sphincs128f(),
                                           &Params::sphincs192f(),
                                           &Params::sphincs256f()),
                         [](const auto &info) {
                             return info.param->name.substr(
                                 info.param->name.find('-') + 1);
                         });
