/**
 * @file
 * Group invariance of cross-signature signing: a LaneScheduler group
 * (one SphincsPlus::signGroup call) must produce signatures
 * byte-identical to signing each message alone on every Table I
 * parameter set, at every lane width (1 / 8 / 16), for ragged group
 * sizes that don't divide the lane width and for a full group, with
 * exactly the hash work of the single signatures.
 */

#include <gtest/gtest.h>

#include "batch/lane_scheduler.hh"
#include "batch_test_util.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::batchtest;
using batch::LaneScheduler;
using sphincs::Context;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

/** Pin the lane engine to one width for a scope. */
class ScopedWidth
{
  public:
    explicit ScopedWidth(unsigned width)
    {
        sha256LanesForceScalar(width == 1);
        sha256LanesDisableAvx512(width == 8);
    }
    ~ScopedWidth()
    {
        sha256LanesForceScalar(false);
        sha256LanesDisableAvx512(false);
    }
};

/** opt_rand for message i: empty (deterministic) for even i. */
ByteVec
optRandFor(const Params &p, unsigned i)
{
    if (i % 2 == 0)
        return {};
    ByteVec r(p.n);
    for (unsigned j = 0; j < p.n; ++j)
        r[j] = static_cast<uint8_t>(0xA0 + 7 * i + j);
    return r;
}

} // namespace

TEST(LaneSchedulerTest, GroupsMatchScalarOnAllSetsWidthsAndSizes)
{
    for (const Params &p : Params::all()) {
        SphincsPlus scheme(p);
        const auto kp = scheme.keygenFromSeed(fixedSeed(p));
        Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

        // Scalar-width single signatures: the ground truth every
        // group must reproduce bit for bit, and the hash work it
        // must not exceed or undercut.
        constexpr unsigned maxMsgs = LaneScheduler::maxGroup;
        std::vector<ByteVec> msgs;
        std::vector<ByteVec> rands;
        std::vector<ByteVec> want;
        std::vector<uint64_t> comps;
        {
            ScopedWidth w(1);
            for (unsigned i = 0; i < maxMsgs; ++i) {
                msgs.push_back(patternMsg(48, static_cast<uint8_t>(i)));
                rands.push_back(optRandFor(p, i));
                const uint64_t c0 = Sha256::compressionCount();
                want.push_back(
                    scheme.sign(ctx, msgs[i], kp.sk, rands[i]));
                comps.push_back(Sha256::compressionCount() - c0);
            }
        }

        for (unsigned width : {1u, 8u, 16u}) {
            ScopedWidth w(width);
            // Ragged sizes on purpose: 3 and 5 divide neither 8 nor
            // 16, so partial lane groups and tail chains exercise
            // the padded kernels; 16 is a full group.
            for (unsigned group : {1u, 3u, 5u, maxMsgs}) {
                std::vector<ByteSpan> msg_spans, rand_spans;
                uint64_t want_comps = 0;
                for (unsigned i = 0; i < group; ++i) {
                    msg_spans.emplace_back(msgs[i]);
                    rand_spans.emplace_back(rands[i]);
                    want_comps += comps[i];
                }
                std::vector<ByteVec> got(group);
                const uint64_t c0 = Sha256::compressionCount();
                LaneScheduler::signGroup(ctx, kp.sk, msg_spans.data(),
                                         rand_spans.data(), got.data(),
                                         group);
                EXPECT_EQ(Sha256::compressionCount() - c0, want_comps)
                    << p.name << " width=" << width
                    << " group=" << group;
                for (unsigned i = 0; i < group; ++i)
                    EXPECT_EQ(got[i], want[i])
                        << p.name << " width=" << width
                        << " group=" << group << " msg=" << i;
            }
        }
    }
}

TEST(LaneSchedulerTest, OversizedGroupRejects)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    const unsigned count = LaneScheduler::maxGroup + 1;
    std::vector<ByteVec> msgs = patternBatch(count);
    std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<ByteVec> sigs(count);
    EXPECT_THROW(LaneScheduler::signGroup(ctx, kp.sk, spans.data(),
                                          nullptr, sigs.data(), count),
                 std::invalid_argument);
    // An empty group signs nothing.
    EXPECT_NO_THROW(LaneScheduler::signGroup(ctx, kp.sk, spans.data(),
                                             nullptr, sigs.data(), 0));
    EXPECT_TRUE(sigs[0].empty());
}

TEST(LaneSchedulerTest, FullGroupOnMiniParams)
{
    // A full maxGroup lockstep group on the cheap set, checked
    // against scalar signing.
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    const unsigned count = LaneScheduler::maxGroup;
    std::vector<ByteVec> msgs = patternBatch(count);
    std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<ByteVec> sigs(count);
    LaneScheduler::signGroup(ctx, kp.sk, spans.data(), nullptr,
                             sigs.data(), count);
    for (unsigned i = 0; i < count; ++i)
        EXPECT_EQ(sigs[i], scheme.sign(ctx, msgs[i], kp.sk))
            << "msg " << i;
}
