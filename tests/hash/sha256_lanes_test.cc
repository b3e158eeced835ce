/**
 * @file
 * Width-generic SHA-256 lane engine tests: lane equivalence against
 * the scalar hasher at widths 8 and 16 (one-shot, mid-state resume,
 * ragged final-block lengths), padded ragged tails at every width and
 * tier, forced-fallback behaviour, compression accounting, direct
 * scalar parity of the generic compression and the fused seeded
 * single-block kernel of both SIMD backends, the unified
 * laneDispatch() override precedence, and the dispatch tier the bench
 * host fingerprint records.
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "tune/profile.hh"

using namespace herosign;

namespace
{

/** Force the portable backend for one scope, restoring on exit. */
struct ScopedScalarLanes
{
    ScopedScalarLanes() { sha256LanesForceScalar(true); }
    ~ScopedScalarLanes() { sha256LanesForceScalar(false); }
};

/** Hash @p width lanes one-shot through Sha256Lanes. */
void
digestLanes(unsigned width, const std::vector<ByteVec> &msgs,
            uint8_t digests[][32],
            Sha256Variant variant = Sha256Variant::Native)
{
    const uint8_t *ptrs[Sha256Lanes::maxLanes];
    uint8_t *dptrs[Sha256Lanes::maxLanes];
    for (unsigned l = 0; l < width; ++l) {
        ptrs[l] = msgs[l].data();
        dptrs[l] = digests[l];
    }
    Sha256Lanes hasher(width, variant);
    hasher.update(ptrs, msgs[0].size());
    hasher.final(dptrs);
}

void
expectMatchesScalar(unsigned width, size_t len, uint64_t seed)
{
    Rng rng(seed);
    std::vector<ByteVec> msgs(width);
    for (auto &m : msgs)
        m = rng.bytes(len);

    uint8_t digests[Sha256Lanes::maxLanes][32];
    digestLanes(width, msgs, digests);

    for (unsigned l = 0; l < width; ++l) {
        auto expected = Sha256::digest(msgs[l]);
        EXPECT_EQ(hexEncode(ByteSpan(digests[l], 32)),
                  hexEncode(expected))
            << "width " << width << " lane " << l << " len " << len;
    }
}

TEST(Sha256Lanes, MatchesScalarAcrossLengthsAndWidths)
{
    // Ragged final-block lengths: around the 55/56 padding boundary,
    // the 64-byte block boundary, multi-block, and empty. Widths
    // cover both SIMD widths plus odd partial widths that exercise
    // the greedy 16/8/scalar chunking.
    const size_t lengths[] = {0,  1,  31, 32,  54,  55,  56,
                              63, 64, 65, 119, 128, 200, 576};
    uint64_t seed = 1;
    for (unsigned width : {1u, 3u, 8u, 11u, 16u})
        for (size_t len : lengths)
            expectMatchesScalar(width, len, seed++);
}

TEST(Sha256Lanes, MatchesScalarOnPortableBackend)
{
    ScopedScalarLanes scoped;
    EXPECT_FALSE(sha256LanesAvx2Active());
    EXPECT_FALSE(sha256LanesAvx512Active());
    const size_t lengths[] = {0, 1, 55, 56, 64, 65, 200};
    uint64_t seed = 100;
    for (unsigned width : {8u, 16u})
        for (size_t len : lengths)
            expectMatchesScalar(width, len, seed++);
}

TEST(Sha256Lanes, PtxVariantLanesMatchScalar)
{
    Rng rng(7);
    for (unsigned width : {8u, 16u}) {
        std::vector<ByteVec> msgs(width);
        for (auto &m : msgs)
            m = rng.bytes(96);
        uint8_t digests[Sha256Lanes::maxLanes][32];
        digestLanes(width, msgs, digests, Sha256Variant::Ptx);
        for (unsigned l = 0; l < width; ++l) {
            auto expected = Sha256::digest(msgs[l], Sha256Variant::Ptx);
            EXPECT_EQ(hexEncode(ByteSpan(digests[l], 32)),
                      hexEncode(expected));
        }
    }
}

TEST(Sha256Lanes, MidStateResumeMatchesScalar)
{
    Rng rng(11);
    ByteVec prefix = rng.bytes(64); // one whole block
    Sha256 seeded;
    seeded.update(prefix);
    const Sha256State mid = seeded.midState();

    for (unsigned width : {8u, 16u}) {
        for (size_t suffix_len : {0u, 16u, 54u, 55u, 64u, 130u}) {
            std::vector<ByteVec> suffixes(width);
            for (auto &s : suffixes)
                s = rng.bytes(suffix_len);

            const uint8_t *ptrs[Sha256Lanes::maxLanes];
            uint8_t digests[Sha256Lanes::maxLanes][32];
            uint8_t *dptrs[Sha256Lanes::maxLanes];
            for (unsigned l = 0; l < width; ++l) {
                ptrs[l] = suffixes[l].data();
                dptrs[l] = digests[l];
            }
            Sha256Lanes hasher(width, mid);
            hasher.update(ptrs, suffix_len);
            hasher.final(dptrs);

            for (unsigned l = 0; l < width; ++l) {
                Sha256 scalar(mid);
                scalar.update(suffixes[l]);
                uint8_t expected[32];
                scalar.final(expected);
                EXPECT_EQ(hexEncode(ByteSpan(digests[l], 32)),
                          hexEncode(ByteSpan(expected, 32)))
                    << "width " << width << " suffix len " << suffix_len
                    << " lane " << l;
            }
        }
    }
}

TEST(Sha256Lanes, RejectsUnalignedMidStateAndBadWidths)
{
    Sha256State mid{};
    mid.bytesCompressed = 63;
    EXPECT_THROW(Sha256Lanes h(8, mid), std::logic_error);
    EXPECT_THROW(Sha256Lanes h(0), std::invalid_argument);
    EXPECT_THROW(Sha256Lanes h(17), std::invalid_argument);
}

TEST(Sha256Lanes, CompressionCountMatchesScalarCallsAtEveryWidth)
{
    // Every width 1..16 at every tier: the lone scalar lane, padded
    // x8 and x16 tails, and full calls followed by a padded tail. One-
    // block, two-block, four-block and long (T_len-sized) messages.
    // Digests match the scalar hasher and only real lanes are
    // charged.
    struct Tier
    {
        const char *name;
        bool scalar;
        bool noAvx512;
    };
    const Tier tiers[] = {{"forced-scalar", true, false},
                          {"width-8", false, true},
                          {"widest", false, false}};
    Rng rng(23);
    for (const Tier &tier : tiers) {
        sha256LanesForceScalar(tier.scalar);
        sha256LanesDisableAvx512(tier.noAvx512);
        for (size_t len : {16u, 64u, 200u, 2166u}) {
            Sha256::resetCompressionCount();
            (void)Sha256::digest(rng.bytes(len));
            const uint64_t blocks = Sha256::compressionCount();
            for (unsigned width = 1; width <= Sha256Lanes::maxLanes;
                 ++width) {
                std::vector<ByteVec> msgs(width);
                for (auto &m : msgs)
                    m = rng.bytes(len);
                uint8_t digests[Sha256Lanes::maxLanes][32];
                Sha256::resetCompressionCount();
                digestLanes(width, msgs, digests);
                EXPECT_EQ(Sha256::compressionCount(), width * blocks)
                    << tier.name << " width " << width << " len " << len;
                for (unsigned l = 0; l < width; ++l)
                    EXPECT_EQ(hexEncode(ByteSpan(digests[l], 32)),
                              hexEncode(Sha256::digest(msgs[l])))
                        << tier.name << " width " << width << " len "
                        << len << " lane " << l;
            }
        }
    }
    sha256LanesForceScalar(false);
    sha256LanesDisableAvx512(false);
}

/** Pre-padded single-block lanes for the fused seeded kernels. */
template <size_t W>
void
fusedKernelCase(const Sha256State &mid,
                void (*kernel)(const std::array<uint32_t, 8> &,
                               const uint8_t *const[W],
                               uint8_t *const[W]))
{
    Rng rng(31 + W);
    const size_t data_len = 40;
    uint8_t blocks[W][64];
    const uint8_t *bptrs[W];
    ByteVec payloads[W];
    for (size_t l = 0; l < W; ++l) {
        payloads[l] = rng.bytes(data_len);
        std::memcpy(blocks[l], payloads[l].data(), data_len);
        blocks[l][data_len] = 0x80;
        std::memset(blocks[l] + data_len + 1, 0, 64 - 9 - data_len);
        storeBe64(blocks[l] + 56, (mid.bytesCompressed + data_len) * 8);
        bptrs[l] = blocks[l];
    }
    uint8_t digests[W][32];
    uint8_t *dptrs[W];
    for (size_t l = 0; l < W; ++l)
        dptrs[l] = digests[l];
    kernel(mid.h, bptrs, dptrs);

    for (size_t l = 0; l < W; ++l) {
        Sha256 scalar(mid);
        scalar.update(payloads[l]);
        uint8_t expected[32];
        scalar.final(expected);
        EXPECT_EQ(hexEncode(ByteSpan(digests[l], 32)),
                  hexEncode(ByteSpan(expected, 32)))
            << "fused width " << W << " lane " << l;
    }
}

TEST(Sha256Lanes, FusedSeededAvx2KernelMatchesIncremental)
{
    if (!sha256LanesAvx2Active())
        GTEST_SKIP() << "AVX2 backend unavailable";

    Rng rng(31);
    ByteVec prefix = rng.bytes(64);
    Sha256 seeded;
    seeded.update(prefix);
    fusedKernelCase<8>(seeded.midState(), sha256Final8SeededAvx2);
}

TEST(Sha256Lanes, FusedSeededAvx512KernelMatchesIncremental)
{
    if (!sha256LanesAvx512Active())
        GTEST_SKIP() << "AVX-512 backend unavailable";

    Rng rng(37);
    ByteVec prefix = rng.bytes(64);
    Sha256 seeded;
    seeded.update(prefix);
    fusedKernelCase<16>(seeded.midState(), sha256Final16SeededAvx512);
}

/**
 * A W-lane generic compression over distinct per-lane chaining states
 * and blocks must match W scalar compressions.
 */
template <size_t W>
void
genericCompressionCase(uint64_t seed,
                       void (*kernel)(std::array<uint32_t, 8>[W],
                                      const uint8_t *const[W]))
{
    Rng rng(seed);
    std::array<uint32_t, 8> states[W];
    std::array<uint32_t, 8> expected[W];
    ByteVec blocks[W];
    const uint8_t *bptrs[W];
    for (size_t l = 0; l < W; ++l) {
        ByteVec raw = rng.bytes(32);
        for (int i = 0; i < 8; ++i)
            states[l][i] = loadBe32(raw.data() + 4 * i);
        expected[l] = states[l];
        blocks[l] = rng.bytes(64);
        bptrs[l] = blocks[l].data();
        sha256CompressNative(expected[l], blocks[l].data());
    }
    kernel(states, bptrs);
    for (size_t l = 0; l < W; ++l)
        EXPECT_EQ(states[l], expected[l]) << "lane " << l;
}

TEST(Sha256Lanes, GenericAvx2CompressionMatchesScalar)
{
    if (!sha256LanesAvx2Active())
        GTEST_SKIP() << "AVX2 backend unavailable";
    genericCompressionCase<8>(43, sha256Compress8Avx2);
}

TEST(Sha256Lanes, GenericAvx512CompressionMatchesScalar)
{
    if (!sha256LanesAvx512Active())
        GTEST_SKIP() << "AVX-512 backend unavailable";
    genericCompressionCase<16>(41, sha256Compress16Avx512);
}

TEST(LaneDispatch, QueriesAreConsistent)
{
    // Active implies supported implies compiled, per ISA.
    if (sha256LanesAvx2Active()) {
        EXPECT_TRUE(sha256LanesAvx2Supported());
    }
    if (sha256LanesAvx2Supported()) {
        EXPECT_TRUE(sha256LanesAvx2Compiled());
    }
    if (sha256LanesAvx512Active()) {
        EXPECT_TRUE(sha256LanesAvx512Supported());
    }
    if (sha256LanesAvx512Supported()) {
        EXPECT_TRUE(sha256LanesAvx512Compiled());
    }

    // The struct and the per-ISA queries are one decision.
    const LaneDispatch d = laneDispatch();
    EXPECT_EQ(d.avx2, sha256LanesAvx2Active());
    EXPECT_EQ(d.avx512, sha256LanesAvx512Active());
    EXPECT_EQ(d.width, d.avx512 ? 16u : 8u);
    switch (d.backend) {
    case LaneBackend::Avx512: EXPECT_TRUE(d.avx512); break;
    case LaneBackend::Avx2:
        EXPECT_TRUE(d.avx2);
        EXPECT_FALSE(d.avx512);
        break;
    case LaneBackend::Scalar:
        EXPECT_FALSE(d.avx2);
        EXPECT_FALSE(d.avx512);
        break;
    }
}

TEST(LaneDispatch, OverridePrecedence)
{
    // Force-scalar beats cpuid for BOTH ISAs at once.
    sha256LanesForceScalar(true);
    EXPECT_FALSE(sha256LanesAvx2Active());
    EXPECT_FALSE(sha256LanesAvx512Active());
    EXPECT_EQ(laneDispatch().backend, LaneBackend::Scalar);
    EXPECT_EQ(laneDispatch().width, 8u);

    // The AVX-512 kill switch is subordinate to force-scalar...
    sha256LanesDisableAvx512(false);
    EXPECT_FALSE(sha256LanesAvx512Active());
    sha256LanesForceScalar(false);

    // ...and on its own only pins dispatch to the width-8 path.
    sha256LanesDisableAvx512(true);
    EXPECT_FALSE(sha256LanesAvx512Active());
    EXPECT_EQ(laneDispatch().width, 8u);
    EXPECT_EQ(sha256LanesAvx2Active(),
              sha256LanesAvx2Supported() &&
                  !laneEnvFlagEnabled("HEROSIGN_DISABLE_AVX2"));
    sha256LanesDisableAvx512(false);
}

// Bench snapshots are compared only between equal fingerprints, so the
// recorded tier must follow laneDispatch(), overrides included.
TEST(LaneDispatch, HostFingerprintNamesTheDispatchedTier)
{
    const auto fp = tune::HostFingerprint::current();
    EXPECT_GE(fp.cores, 1u);
    EXPECT_FALSE(fp.cpuModel.empty());
    switch (laneDispatch().backend) {
    case LaneBackend::Avx512: EXPECT_EQ(fp.dispatch, "avx512"); break;
    case LaneBackend::Avx2: EXPECT_EQ(fp.dispatch, "avx2"); break;
    case LaneBackend::Scalar: EXPECT_EQ(fp.dispatch, "portable"); break;
    }

    ScopedScalarLanes scalar;
    EXPECT_EQ(tune::HostFingerprint::current().dispatch, "portable");
}

TEST(LaneDispatch, EnvFlagParseSemantics)
{
#ifdef _WIN32
    GTEST_SKIP() << "POSIX setenv/unsetenv unavailable";
#else
    // The knob semantics shared by HEROSIGN_DISABLE_AVX2/AVX512:
    // any non-empty value except exactly "0" is truthy. (The dispatch
    // snapshot itself is taken at first use — process-level coverage
    // of the snapshot lives in the CI lane-matrix jobs.)
    const char *var = "HEROSIGN_TEST_LANE_FLAG";
    ::unsetenv(var);
    EXPECT_FALSE(laneEnvFlagEnabled(var));
    ::setenv(var, "", 1);
    EXPECT_FALSE(laneEnvFlagEnabled(var));
    ::setenv(var, "0", 1);
    EXPECT_FALSE(laneEnvFlagEnabled(var));
    ::setenv(var, "1", 1);
    EXPECT_TRUE(laneEnvFlagEnabled(var));
    ::setenv(var, "00", 1);
    EXPECT_TRUE(laneEnvFlagEnabled(var)); // only exactly "0" is false
    ::setenv(var, "off", 1);
    EXPECT_TRUE(laneEnvFlagEnabled(var));
    ::unsetenv(var);
#endif
}

} // namespace
