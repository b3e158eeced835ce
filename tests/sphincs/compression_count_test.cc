/**
 * @file
 * Exact compression-count gate: for mini, 128f, 192f and 256f, at
 * every lane tier, a fixed seeded key signs and verifies a fixed
 * message, and the Sha256::compressionCount() deltas of keygen, sign
 * and verify must equal the pinned values exactly. The counts are a
 * deterministic property of the algorithm, not of timing, so this
 * gate has no noise: any change to how many compressions a
 * signature costs shows up here in the same change.
 *
 * Update rule: a change that alters a count on purpose (a new
 * algorithmic shortcut, a capture that removes a re-walk) updates the
 * pin below and states the old and new value and the reason in
 * CHANGES.md. A change that alters a count by accident is a bug.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "hash/sha256.hh"
#include "lane_tiers.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::sphincs;
using herosign::sphincs::test::laneTiers;
using herosign::sphincs::test::ScopedTier;

namespace
{

/** The small non-standard set the tune smoke and batch tests use. */
Params
miniParams()
{
    Params p;
    p.name = "mini";
    p.n = 16;
    p.fullHeight = 6;
    p.layers = 3;
    p.forsHeight = 4;
    p.forsTrees = 8;
    p.wotsW = 16;
    p.validate();
    return p;
}

struct CountPin
{
    Params params;
    uint64_t keygen;
    uint64_t sign;
    uint64_t verify;
};

struct Counts
{
    uint64_t keygen;
    uint64_t sign;
    uint64_t verify;
};

/** Keygen from the seed 0, 1, 2, ...; deterministic sign; verify. */
Counts
measure(const Params &p)
{
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    const std::string text = "HERO-Sign compression count";
    const ByteVec msg(text.begin(), text.end());

    Counts c;
    uint64_t before = Sha256::compressionCount();
    const KeyPair kp = scheme.keygenFromSeed(seed);
    c.keygen = Sha256::compressionCount() - before;

    before = Sha256::compressionCount();
    const ByteVec sig = scheme.sign(msg, kp.sk);
    c.sign = Sha256::compressionCount() - before;

    before = Sha256::compressionCount();
    EXPECT_TRUE(scheme.verify(msg, sig, kp.pk)) << p.name;
    c.verify = Sha256::compressionCount() - before;
    return c;
}

} // namespace

TEST(CompressionCount, PinnedPerParameterSetAtEveryLaneTier)
{
    const CountPin pins[] = {
        {miniParams(), 2284, 7245, 909},
        {Params::sphincs128f(), 4568, 106830, 6323},
        {Params::sphincs192f(), 6703, 181227, 9598},
        {Params::sphincs256f(), 17727, 373018, 10135},
    };
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        for (const CountPin &want : pins) {
            SCOPED_TRACE(std::string(tier.name) + " " +
                         want.params.name);
            const Counts got = measure(want.params);
            EXPECT_EQ(got.keygen, want.keygen);
            EXPECT_EQ(got.sign, want.sign);
            EXPECT_EQ(got.verify, want.verify);
        }
    }
}
