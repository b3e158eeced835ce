/**
 * @file
 * FORS tests: index extraction, leaf derivation, the sign →
 * pk-from-sig roundtrip property, and Tree Fusion: the fused forsSign
 * against a per-tree reference at every lane tier.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256xN.hh"
#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using namespace herosign::sphincs;

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

/** One lane tier, pinned for a scope and released on exit. */
struct LaneTier
{
    const char *name;
    bool scalar;
    bool noAvx512;
};

constexpr LaneTier laneTiers[] = {
    {"forced-scalar", true, false},
    {"width-8", false, true},
    {"widest", false, false},
};

struct ScopedTier
{
    explicit ScopedTier(const LaneTier &tier)
    {
        sha256LanesForceScalar(tier.scalar);
        sha256LanesDisableAvx512(tier.noAvx512);
    }
    ~ScopedTier()
    {
        sha256LanesForceScalar(false);
        sha256LanesDisableAvx512(false);
    }
};

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
        Address adrs;
        adrs.setLayer(0);
        adrs.setTree(91);
        adrs.setType(AddrType::ForsTree);
        adrs.setKeypair(5);
        const ByteVec mhash = rng.bytes(p.forsMsgBytes());

        ByteVec ref_sig(p.forsSigBytes());
        uint8_t ref_pk[maxN];
        Sha256::resetCompressionCount();
        perTreeForsSign(ref_sig.data(), ref_pk, mhash.data(), ctx, adrs);
        const uint64_t ref_count = Sha256::compressionCount();

        for (const LaneTier &tier : laneTiers) {
            SCOPED_TRACE(tier.name);
            ScopedTier pin(tier);
            ByteVec sig(p.forsSigBytes());
            uint8_t pk[maxN];
            Sha256::resetCompressionCount();
            forsSign(sig.data(), pk, mhash.data(), ctx, adrs);
            EXPECT_EQ(Sha256::compressionCount(), ref_count);
            EXPECT_EQ(hexEncode(sig), hexEncode(ref_sig));
            EXPECT_EQ(hexEncode(ByteSpan(pk, p.n)),
                      hexEncode(ByteSpan(ref_pk, p.n)));
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
}
