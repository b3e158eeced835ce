/**
 * @file
 * Golden-vector fixtures for the scalar SPHINCS+ reference: for every
 * parameter set, a keypair expanded from a fixed seed and a
 * deterministic signature over a fixed message are pinned to recorded
 * digests. These are regression vectors generated from this
 * implementation (the custom thash/H_msg instantiation has no official
 * NIST KAT), but the hash substrate underneath them is KAT-validated
 * in tests/hash/hash_kat_test.cc, so any drift here is a real
 * behaviour change in the signature path.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "common/hex.hh"
#include "hash/sha256.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/** The fixed 3n-byte keygen seed: 0x00, 0x01, 0x02, ... */
ByteVec
fixedSeed(const Params &p)
{
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    return seed;
}

/** The fixed message: "HERO-Sign golden vector" */
ByteVec
fixedMsg()
{
    const std::string s = "HERO-Sign golden vector";
    return ByteVec(s.begin(), s.end());
}

std::string
sigDigestHex(ByteSpan sig)
{
    auto d = Sha256::digest(sig);
    return hexEncode(ByteSpan(d.data(), d.size()));
}

struct GoldenVector
{
    const char *name;
    const char *pkRootHex;    ///< hex of the n-byte hypertree root
    const char *sigSha256Hex; ///< SHA-256 of the deterministic signature
    const char *optSigSha256Hex; ///< ... of the opt_rand = 0xa5..a5 one
};

const GoldenVector goldens[] = {
    {"128f",
     "3b56e816847f000386aeec2e2bb9e1b5",
     "2c1897faeda4485400c4187eca7484d4a4598db6fc2d335f4f23edac9d306e41",
     "2d172e8ec2aad773b3965d2fb1b3e4d20370ed01dea1b96767a7ae8cf5f440d3"},
    {"192f",
     "5e9993b30299a80e2dde8460cfa1afad73908194f2666a7b",
     "969ffa0f8c9e0b0bf3dd920e9f734799dc4cdb3c2baae66ea2225f42cf3db415",
     "58efebda0f25dd290c7ec784d2890ffab7721e53c20a0a146f0a2209dfaf8c66"},
    {"256f",
     "6312b178d4b40c007f3a8937715e7763ce0e3ec5fe31b04fe5f5ce7e949873cb",
     "04ca4d4d95484e5a9e8d5b3f5d5aaf8ff954983c768687a2ec051d4b1cd881b3",
     "9ae4f561a7da3085d7df887a75df49557a4a41562f86fb842cc8df7ab262bb3b"},
};

} // namespace

class GoldenSign : public ::testing::TestWithParam<GoldenVector>
{
};

TEST_P(GoldenSign, KeygenAndSignMatchRecordedVectors)
{
    const GoldenVector &g = GetParam();
    const Params &p = Params::byName(g.name);
    SphincsPlus scheme(p);

    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    EXPECT_EQ(hexEncode(kp.pk.pkRoot), g.pkRootHex) << p.name;
    EXPECT_EQ(kp.sk.pkRoot, kp.pk.pkRoot);
    EXPECT_EQ(kp.sk.encode().size(), p.skBytes());
    EXPECT_EQ(kp.pk.encode().size(), p.pkBytes());

    ByteVec msg = fixedMsg();
    ByteVec sig = scheme.sign(msg, kp.sk);
    ASSERT_EQ(sig.size(), p.sigBytes());
    EXPECT_EQ(sigDigestHex(sig), g.sigSha256Hex) << p.name;
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk));

    // Deterministic signing is a function: sign twice, compare.
    EXPECT_EQ(scheme.sign(msg, kp.sk), sig);

    // Randomized variant with pinned opt_rand is deterministic too.
    ByteVec opt(p.n, 0xa5);
    ByteVec optSig = scheme.sign(msg, kp.sk, opt);
    EXPECT_EQ(sigDigestHex(optSig), g.optSigSha256Hex) << p.name;
    EXPECT_NE(optSig, sig);
    EXPECT_TRUE(scheme.verify(msg, optSig, kp.pk));
}

TEST_P(GoldenSign, TamperedSignatureOrMessageRejected)
{
    const GoldenVector &g = GetParam();
    const Params &p = Params::byName(g.name);
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    ByteVec msg = fixedMsg();
    ByteVec sig = scheme.sign(msg, kp.sk);

    // Flip one bit in a few spread-out positions of the signature.
    for (size_t pos : {size_t{0}, sig.size() / 2, sig.size() - 1}) {
        ByteVec bad = sig;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(scheme.verify(msg, bad, kp.pk)) << p.name;
    }

    ByteVec badMsg = msg;
    badMsg[0] ^= 0x80;
    EXPECT_FALSE(scheme.verify(badMsg, sig, kp.pk)) << p.name;

    // Truncated signature must be rejected, not crash.
    ByteVec shortSig(sig.begin(), sig.end() - 1);
    EXPECT_FALSE(scheme.verify(msg, shortSig, kp.pk)) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllParamSets, GoldenSign,
    ::testing::ValuesIn(goldens),
    [](const ::testing::TestParamInfo<GoldenVector> &info) {
        return std::string("sphincs") + info.param.name;
    });
