/**
 * @file
 * Fused WOTS+ chain kernel tests: advanceChains() — the one chain
 * dispatcher over the x16/x8 register-resident kernels and the portable
 * walk — against the scalar genChain() walk, at n = 16/24/32 and at
 * every lane tier. Covers full chains, seeded ragged start/end
 * (start == end included), captures at the start, mid-chain and at
 * the end, 1..16 live chains (so padded calls carry ghost lanes), the
 * exact compression charge, the simd-lane fault seam, and
 * sha256ChainF's rejection of out-of-range arguments.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/random.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "lane_tiers.hh"
#include "sphincs/params.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;
using herosign::sphincs::test::laneTiers;
using herosign::sphincs::test::ScopedTier;

namespace
{

const Params *const paramSets[] = {&Params::sphincs128f(),
                                   &Params::sphincs192f(),
                                   &Params::sphincs256f()};

/** Bytes a capture slot holds when no capture lands in it. */
constexpr uint8_t untouched = 0xEE;

/** One keypair's chains: inputs, ranges and capture positions. */
struct ChainCase
{
    Address adrs;
    ByteVec in;
    uint32_t start[maxWotsLen];
    uint32_t end[maxWotsLen];
    uint32_t capPos[maxWotsLen];
    bool capture = false;
};

Context
makeContext(const Params &p, uint64_t seed)
{
    Rng rng(seed);
    ByteVec pk_seed = rng.bytes(p.n);
    ByteVec sk_seed = rng.bytes(p.n);
    return Context(p, pk_seed, sk_seed);
}

Address
randomLeafAddress(Rng &rng)
{
    Address a;
    a.setLayer(static_cast<uint32_t>(rng.below(22)));
    a.setTree(rng.next() >> 8);
    a.setType(AddrType::WotsHash);
    a.setKeypair(static_cast<uint32_t>(rng.below(1u << 16)));
    return a;
}

/** A case whose chains are all dead (start == end == 0) to begin. */
ChainCase
deadCase(const Params &p, Rng &rng)
{
    ChainCase c;
    c.adrs = randomLeafAddress(rng);
    c.in = rng.bytes(static_cast<size_t>(p.wotsLen()) * p.n);
    for (unsigned i = 0; i < maxWotsLen; ++i)
        c.start[i] = c.end[i] = c.capPos[i] = 0;
    return c;
}

/** Give chain @p i a random range, and a capture at its start, in
 * its middle, at its end or outside it. */
void
randomRange(ChainCase &c, unsigned i, const Params &p, Rng &rng)
{
    uint32_t a = static_cast<uint32_t>(rng.below(p.wotsW));
    uint32_t b = static_cast<uint32_t>(rng.below(p.wotsW));
    if (rng.below(6) == 0)
        b = a; // start == end
    c.start[i] = std::min(a, b);
    c.end[i] = std::max(a, b);
    switch (rng.below(4)) {
    case 0:
        c.capPos[i] = c.start[i];
        break;
    case 1:
        c.capPos[i] = c.end[i];
        break;
    case 2:
        c.capPos[i] = c.start[i] +
                      static_cast<uint32_t>(
                          rng.below(c.end[i] - c.start[i] + 1));
        break;
    default:
        c.capPos[i] = c.end[i] + 1; // outside: nothing captured
        break;
    }
}

/** The scalar genChain() walk of every chain of @p c. */
void
reference(const Context &ctx, const ChainCase &c, uint8_t *vals,
          uint8_t *caps)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    for (unsigned i = 0; i < p.wotsLen(); ++i) {
        Address a = c.adrs;
        a.setChain(i);
        const uint8_t *in = c.in.data() + i * n;
        genChain(vals + i * n, in, c.start[i], c.end[i] - c.start[i],
                 ctx, a);
        std::memset(caps + i * n, untouched, n);
        if (c.capture && c.capPos[i] >= c.start[i] &&
            c.capPos[i] <= c.end[i])
            genChain(caps + i * n, in, c.start[i],
                     c.capPos[i] - c.start[i], ctx, a);
    }
}

/**
 * Run @p cases through advanceChains() under @p ctx and check values,
 * captures and the compression charge against the scalar reference.
 */
void
expectAdvanceChainsMatchesGenChain(const Context &ctx,
                                   const std::vector<ChainCase> &cases)
{
    const Params &p = ctx.params();
    const size_t bytes = static_cast<size_t>(p.wotsLen()) * p.n;
    const size_t count = cases.size();

    std::vector<ByteVec> want_vals(count, ByteVec(bytes));
    std::vector<ByteVec> want_caps(count, ByteVec(bytes));
    uint64_t want_steps = 0;
    for (size_t s = 0; s < count; ++s) {
        reference(ctx, cases[s], want_vals[s].data(),
                  want_caps[s].data());
        for (unsigned i = 0; i < p.wotsLen(); ++i)
            want_steps += cases[s].end[i] - cases[s].start[i];
    }

    std::vector<ByteVec> vals(count), caps(count);
    std::vector<WotsChainSet> sets(count);
    for (size_t s = 0; s < count; ++s) {
        vals[s] = cases[s].in;
        caps[s].assign(bytes, untouched);
        sets[s].adrs = cases[s].adrs;
        sets[s].vals = vals[s].data();
        sets[s].start = cases[s].start;
        sets[s].end = cases[s].end;
        if (cases[s].capture) {
            sets[s].capOut = caps[s].data();
            sets[s].capPos = cases[s].capPos;
        }
    }
    const uint64_t before = Sha256::compressionCount();
    advanceChains(sets.data(), static_cast<unsigned>(count), ctx);
    EXPECT_EQ(Sha256::compressionCount() - before, want_steps);

    for (size_t s = 0; s < count; ++s) {
        EXPECT_EQ(vals[s], want_vals[s]) << "set " << s;
        if (cases[s].capture) {
            EXPECT_EQ(caps[s], want_caps[s]) << "set " << s;
        }
    }
}

} // namespace

TEST(ChainKernel, FullChainsMatchGenChain)
{
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        for (const Params *pp : paramSets) {
            const Params &p = *pp;
            SCOPED_TRACE(std::string(tier.name) + " " + p.name);
            Context ctx = makeContext(p, 1);
            Rng rng(2);
            std::vector<ChainCase> cases;
            for (unsigned s = 0; s < 3; ++s) {
                ChainCase c = deadCase(p, rng);
                c.capture = s != 1;
                for (unsigned i = 0; i < p.wotsLen(); ++i) {
                    c.end[i] = p.wotsW - 1;
                    c.capPos[i] =
                        static_cast<uint32_t>(rng.below(p.wotsW));
                }
                cases.push_back(c);
            }
            expectAdvanceChainsMatchesGenChain(ctx, cases);
        }
    }
}

TEST(ChainKernel, RaggedRangesAndCapturesMatchGenChain)
{
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        for (const Params *pp : paramSets) {
            const Params &p = *pp;
            Context ctx = makeContext(p, 3);
            Rng rng(4);
            for (unsigned count : {1u, 2u, 5u, 16u}) {
                SCOPED_TRACE(std::string(tier.name) + " " + p.name +
                             " sets " + std::to_string(count));
                std::vector<ChainCase> cases;
                for (unsigned s = 0; s < count; ++s) {
                    ChainCase c = deadCase(p, rng);
                    c.capture = true;
                    for (unsigned i = 0; i < p.wotsLen(); ++i)
                        randomRange(c, i, p, rng);
                    cases.push_back(c);
                }
                expectAdvanceChainsMatchesGenChain(ctx, cases);
            }
        }
    }
}

TEST(ChainKernel, OneToSixteenLiveChains)
{
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        for (const Params *pp : paramSets) {
            const Params &p = *pp;
            Context ctx = makeContext(p, 5);
            Rng rng(6);
            for (unsigned live = 1; live <= maxHashLanes; ++live) {
                SCOPED_TRACE(std::string(tier.name) + " " + p.name +
                             " live " + std::to_string(live));
                ChainCase c = deadCase(p, rng);
                c.capture = true;
                // `live` chains spread over the keypair, each with a
                // non-empty range; every other chain stays dead.
                for (unsigned j = 0; j < live; ++j) {
                    const unsigned i = j * p.wotsLen() / live;
                    c.start[i] =
                        static_cast<uint32_t>(rng.below(p.wotsW - 1));
                    c.end[i] = c.start[i] + 1 +
                               static_cast<uint32_t>(rng.below(
                                   p.wotsW - 1 - c.start[i]));
                    c.capPos[i] = c.start[i] +
                                  static_cast<uint32_t>(rng.below(
                                      c.end[i] - c.start[i] + 1));
                }
                expectAdvanceChainsMatchesGenChain(ctx, {c});
            }
        }
    }
}

TEST(ChainKernel, SimdLaneFaultCorruptsExactlyOneRealLane)
{
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        const bool simd = laneDispatch().avx2 || laneDispatch().avx512;
        SCOPED_TRACE(tier.name);
        const Params &p = Params::sphincs128f();
        Context ctx = makeContext(p, 9);
        Rng rng(10);

        // Three live chains: one padded call, ghost lanes included.
        ChainCase c = deadCase(p, rng);
        for (unsigned i : {2u, 17u, 30u})
            c.end[i] = p.wotsW - 1;
        ByteVec want(c.in.size()), caps(c.in.size());
        reference(ctx, c, want.data(), caps.data());

        ByteVec got = c.in;
        WotsChainSet set;
        set.adrs = c.adrs;
        set.vals = got.data();
        set.start = c.start;
        set.end = c.end;

        FaultPlan plan;
        plan.rule(FaultPoint::SimdLane).active = true;
        FaultInjector::instance().arm(plan);
        advanceChains(&set, 1, ctx);
        const uint64_t fired =
            FaultInjector::instance().fired(FaultPoint::SimdLane);
        FaultInjector::instance().disarm();

        unsigned corrupted = 0;
        for (unsigned i = 0; i < p.wotsLen(); ++i)
            corrupted += std::memcmp(got.data() + i * p.n,
                                     want.data() + i * p.n, p.n) != 0;
        // The portable walk never fires, so the guard's forced-scalar
        // re-sign stays independent of SIMD.
        EXPECT_EQ(fired, simd ? 1u : 0u);
        EXPECT_EQ(corrupted, simd ? 1u : 0u);
    }
}

TEST(ChainKernel, UncoveredValueLengthRunsThePortableWalk)
{
    // n = 20 is a valid custom length the SIMD kernels do not cover;
    // every tier must route it to the portable walk.
    Params p = Params::sphincs128f();
    p.name = "n20";
    p.n = 20;
    p.validate();
    for (const auto &tier : laneTiers) {
        ScopedTier pin(tier);
        SCOPED_TRACE(tier.name);
        Context ctx = makeContext(p, 11);
        Rng rng(12);
        std::vector<ChainCase> cases;
        for (unsigned s = 0; s < 3; ++s) {
            ChainCase c = deadCase(p, rng);
            c.capture = true;
            for (unsigned i = 0; i < p.wotsLen(); ++i)
                randomRange(c, i, p, rng);
            cases.push_back(c);
        }
        expectAdvanceChainsMatchesGenChain(ctx, cases);
    }
}

TEST(ChainKernel, ChainFRejectsOutOfRangeArguments)
{
    // Checked before any tier runs, so every build rejects them alike.
    Context ctx = makeContext(Params::sphincs128f(), 13);
    const Sha256State &mid = ctx.seededState();
    ChainLanes lanes{};
    // More lanes than ChainLanes holds.
    EXPECT_THROW(sha256ChainF(0, 16, maxSha256Lanes + 1, mid, lanes),
                 std::invalid_argument);
    EXPECT_THROW(sha256ChainF(16, 16, maxSha256Lanes + 1, mid, lanes),
                 std::invalid_argument);
    // Values longer than the 32-byte value rows.
    EXPECT_THROW(sha256ChainF(0, 33, 1, mid, lanes),
                 std::invalid_argument);
    EXPECT_THROW(sha256ChainF(16, 33, 1, mid, lanes),
                 std::invalid_argument);
    // A SIMD call narrower than its lanes would leave some unwalked.
    EXPECT_THROW(sha256ChainF(8, 16, 9, mid, lanes),
                 std::invalid_argument);
    EXPECT_THROW(sha256ChainF(4, 16, 2, mid, lanes),
                 std::invalid_argument);
}
