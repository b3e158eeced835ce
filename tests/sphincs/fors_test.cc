/**
 * @file
 * FORS tests: index extraction, leaf derivation, the sign →
 * pk-from-sig roundtrip property, and Tree Fusion: forsSignXN over
 * one to sixteen signatures against a per-tree reference at every
 * lane tier.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "lane_tiers.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using namespace herosign::sphincs;
using namespace herosign::sphincs::test;

namespace
{

class ForsTest : public ::testing::TestWithParam<const Params *>
{
  protected:
    const Params &p() const { return *GetParam(); }

    Context
    makeContext(Rng &rng) const
    {
        return Context(p(), rng.bytes(p().n), rng.bytes(p().n));
    }

    Address
    forsAddress() const
    {
        Address a;
        a.setLayer(0);
        a.setTree(77);
        a.setType(AddrType::ForsTree);
        a.setKeypair(3);
        return a;
    }
};

} // namespace

TEST_P(ForsTest, IndicesInRangeAndBitExact)
{
    Rng rng(30);
    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    uint32_t indices[64];
    messageToIndices(indices, p(), mhash.data());

    // Recompute by walking the bitstream.
    size_t bit = 0;
    for (unsigned i = 0; i < p().forsTrees; ++i) {
        uint32_t expected = 0;
        for (unsigned b = 0; b < p().forsHeight; ++b, ++bit) {
            expected = (expected << 1) |
                       ((mhash[bit >> 3] >> (7 - (bit & 7))) & 1u);
        }
        EXPECT_EQ(indices[i], expected) << "tree " << i;
        EXPECT_LT(indices[i], p().forsLeaves());
    }
}

TEST_P(ForsTest, IndicesAllZeroAllOnes)
{
    ByteVec zeros(p().forsMsgBytes(), 0x00);
    ByteVec ones(p().forsMsgBytes(), 0xff);
    uint32_t idx0[64], idx1[64];
    messageToIndices(idx0, p(), zeros.data());
    messageToIndices(idx1, p(), ones.data());
    for (unsigned i = 0; i < p().forsTrees; ++i) {
        EXPECT_EQ(idx0[i], 0u);
        EXPECT_EQ(idx1[i], p().forsLeaves() - 1);
    }
}

TEST_P(ForsTest, SignRecoverRoundtrip)
{
    Rng rng(31);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    uint8_t recovered[maxN];
    forsPkFromSig(recovered, sig.data(), mhash.data(), ctx, adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(recovered, p().n), ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, TamperedSignatureChangesPk)
{
    Rng rng(32);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    sig[0] ^= 0x01; // corrupt the first revealed secret value
    uint8_t recovered[maxN];
    forsPkFromSig(recovered, sig.data(), mhash.data(), ctx, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(recovered, p().n),
                         ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, DifferentMessageDifferentPkRecovery)
{
    Rng rng(33);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    ByteVec mhash = rng.bytes(p().forsMsgBytes());
    ByteVec sig(p().forsSigBytes());
    uint8_t pk[maxN];
    forsSign(sig.data(), pk, mhash.data(), ctx, adrs);

    ByteVec other = mhash;
    other[0] ^= 0x80; // flips the first tree's index
    uint8_t recovered[maxN];
    forsPkFromSig(recovered, sig.data(), other.data(), ctx, adrs);
    EXPECT_FALSE(ctEqual(ByteSpan(recovered, p().n),
                         ByteSpan(pk, p().n)));
}

TEST_P(ForsTest, SkGenDistinctPerIndex)
{
    Rng rng(34);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    uint8_t sk0[maxN], sk1[maxN];
    forsSkGen(sk0, ctx, adrs, 0);
    forsSkGen(sk1, ctx, adrs, 1);
    EXPECT_FALSE(ctEqual(ByteSpan(sk0, p().n), ByteSpan(sk1, p().n)));
}

TEST_P(ForsTest, LeafIsThashOfSk)
{
    Rng rng(35);
    Context ctx = makeContext(rng);
    Address adrs = forsAddress();

    const uint32_t idx = 5;
    uint8_t sk[maxN];
    forsSkGen(sk, ctx, adrs, idx);

    Address leaf_adrs = adrs;
    leaf_adrs.setTreeHeight(0);
    leaf_adrs.setTreeIndex(idx);
    uint8_t expected[maxN];
    thashF(expected, ctx, leaf_adrs, sk);

    uint8_t leaf[maxN];
    forsGenLeaf(leaf, ctx, adrs, idx);
    EXPECT_TRUE(ctEqual(ByteSpan(leaf, p().n),
                        ByteSpan(expected, p().n)));
}

INSTANTIATE_TEST_SUITE_P(AllSets, ForsTest,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });

namespace
{

/**
 * Per-tree reference for forsSign: every tree built alone from the
 * scalar building blocks — forsSkGen secret values, forsGenLeaf
 * leaves through the LeafFn treehash overload, and a scalar T_k
 * thash over the k roots.
 */
void
perTreeForsSign(uint8_t *sig, uint8_t *pk, const uint8_t *mhash,
                const Context &ctx, const Address &fors_adrs)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const uint32_t t = p.forsLeaves();
    uint32_t indices[64];
    messageToIndices(indices, p, mhash);

    ByteVec roots(static_cast<size_t>(p.forsTrees) * n);
    for (unsigned i = 0; i < p.forsTrees; ++i) {
        const uint32_t offset = i * t;
        forsSkGen(sig, ctx, fors_adrs, indices[i] + offset);
        sig += n;
        Address tree_adrs = fors_adrs;
        tree_adrs.setType(AddrType::ForsTree);
        tree_adrs.setKeypair(fors_adrs.keypair());
        treehash(roots.data() + i * n, sig, ctx, indices[i], offset,
                 p.forsHeight,
                 LeafFn([&](uint8_t *out, uint32_t idx) {
                     forsGenLeaf(out, ctx, fors_adrs, idx + offset);
                 }),
                 tree_adrs);
        sig += p.forsHeight * n;
    }
    Address pk_adrs = fors_adrs;
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(fors_adrs.keypair());
    thash(pk, ctx, pk_adrs, roots);
}

/** 128f with k trees: exercises every k mod 16 fusion remainder. */
Params
withTrees(unsigned k)
{
    Params p = Params::sphincs128f();
    p.name = "128f-k" + std::to_string(k);
    p.forsTrees = k;
    return p;
}

} // namespace

TEST(ForsFusion, FusedSignMatchesPerTreeReference)
{
    std::vector<Params> sets = {Params::sphincs128f(),
                                Params::sphincs192f(),
                                Params::sphincs256f()};
    for (unsigned k : {1u, 3u, 16u, 17u, 33u, 35u})
        sets.push_back(withTrees(k));

    for (const Params &p : sets) {
        SCOPED_TRACE(p.name);
        ASSERT_NO_THROW(p.validate());
        Rng rng(36 + p.forsTrees);
        const Context ctx(p, rng.bytes(p.n), rng.bytes(p.n));

        // Several signatures: the (signature, tree) chunks of 16
        // cross signature boundaries whenever k is not a multiple
        // of 16.
        for (unsigned count : {1u, 2u, 3u, 16u}) {
            SCOPED_TRACE("signatures " + std::to_string(count));
            std::vector<Address> adrs(count);
            std::vector<ByteVec> mhash(count);
            std::vector<ByteVec> ref_sigs(count, ByteVec(p.forsSigBytes()));
            std::vector<ByteVec> ref_pks(count, ByteVec(p.n));
            Sha256::resetCompressionCount();
            for (unsigned l = 0; l < count; ++l) {
                adrs[l].setLayer(0);
                adrs[l].setTree(91 + l);
                adrs[l].setType(AddrType::ForsTree);
                adrs[l].setKeypair(5 + l);
                mhash[l] = rng.bytes(p.forsMsgBytes());
                perTreeForsSign(ref_sigs[l].data(), ref_pks[l].data(),
                                mhash[l].data(), ctx, adrs[l]);
            }
            const uint64_t ref_count = Sha256::compressionCount();

            for (const LaneTier &tier : laneTiers) {
                SCOPED_TRACE(tier.name);
                ScopedTier pin(tier);
                std::vector<ByteVec> sigs(count, ByteVec(p.forsSigBytes()));
                std::vector<ByteVec> pks(count, ByteVec(p.n));
                uint8_t *sig_ptrs[maxHashLanes];
                uint8_t *pk_ptrs[maxHashLanes];
                const uint8_t *mhash_ptrs[maxHashLanes];
                for (unsigned l = 0; l < count; ++l) {
                    sig_ptrs[l] = sigs[l].data();
                    pk_ptrs[l] = pks[l].data();
                    mhash_ptrs[l] = mhash[l].data();
                }
                Sha256::resetCompressionCount();
                if (count == 1)
                    forsSign(sig_ptrs[0], pk_ptrs[0], mhash_ptrs[0], ctx,
                             adrs[0]);
                else
                    forsSignXN(sig_ptrs, pk_ptrs, mhash_ptrs, ctx,
                               adrs.data(), count);
                EXPECT_EQ(Sha256::compressionCount(), ref_count);
                for (unsigned l = 0; l < count; ++l) {
                    EXPECT_EQ(hexEncode(sigs[l]), hexEncode(ref_sigs[l]))
                        << "signature " << l;
                    EXPECT_EQ(hexEncode(pks[l]), hexEncode(ref_pks[l]))
                        << "signature " << l;
                }
            }
        }
    }
}

TEST(ForsFusion, LockstepPassRejectsBadCounts)
{
    const Params &p = Params::sphincs128f();
    Rng rng(37);
    const Context ctx(p, rng.bytes(p.n), rng.bytes(p.n));
    TreehashStream *streams[1] = {nullptr};
    ForsLeafReq first[1];
    EXPECT_THROW(forsTreesLockstep(ctx, streams, first, 0),
                 std::invalid_argument);
    EXPECT_THROW(forsTreesLockstep(ctx, streams, first, maxHashLanes + 1),
                 std::invalid_argument);

    uint8_t *outs[1] = {nullptr};
    const uint8_t *ins[1] = {nullptr};
    Address adrs[1];
    EXPECT_THROW(forsSignXN(outs, outs, ins, ctx, adrs, 0),
                 std::invalid_argument);
    EXPECT_THROW(forsSignXN(outs, outs, ins, ctx, adrs, maxHashLanes + 1),
                 std::invalid_argument);
}
