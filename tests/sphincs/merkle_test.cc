/**
 * @file
 * Treehash / auth-path / computeRoot algebra, with a synthetic leaf
 * function so trees of several heights can be exercised cheaply, plus
 * the real wots_gen_leaf path and merkleSignXN, the hypertree layer
 * of one to sixteen signatures, against a per-signature reference at
 * every lane tier.
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "hash/sha256.hh"
#include "lane_tiers.hh"
#include "sphincs/merkle.hh"
#include "sphincs/params.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

using namespace herosign;
using namespace herosign::sphincs;
using namespace herosign::sphincs::test;

namespace
{

Context
makeContext(Rng &rng, const Params &p)
{
    return Context(p, rng.bytes(p.n), rng.bytes(p.n));
}

/** Deterministic synthetic leaf: F(index bytes) under a Tree address. */
LeafFn
syntheticLeaf(const Context &ctx, uint32_t idx_offset)
{
    return [&ctx, idx_offset](uint8_t *out, uint32_t idx) {
        uint8_t seed[maxN] = {};
        storeBe32(seed, idx + idx_offset);
        Address a;
        a.setType(AddrType::ForsTree);
        a.setTreeHeight(0);
        a.setTreeIndex(idx + idx_offset);
        thashF(out, ctx, a, seed);
    };
}

} // namespace

class TreehashProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, uint32_t>>
{
};

TEST_P(TreehashProperty, AuthPathReconstructsRoot)
{
    const auto [height, leaf_pick] = GetParam();
    const Params &p = Params::sphincs128f();
    Rng rng(40 + height);
    Context ctx = makeContext(rng, p);

    const uint32_t leaves = 1u << height;
    const uint32_t leaf_idx = leaf_pick % leaves;

    Address tree_adrs;
    tree_adrs.setType(AddrType::ForsTree);

    auto leaf_fn = syntheticLeaf(ctx, 0);

    ByteVec auth(height * p.n);
    uint8_t root[maxN];
    treehash(root, auth.data(), ctx, leaf_idx, 0, height, leaf_fn,
             tree_adrs);

    uint8_t leaf[maxN];
    leaf_fn(leaf, leaf_idx);

    Address verify_adrs;
    verify_adrs.setType(AddrType::ForsTree);
    uint8_t rebuilt[maxN];
    computeRoot(rebuilt, ctx, leaf, leaf_idx, 0, auth.data(), height,
                verify_adrs);

    EXPECT_TRUE(ctEqual(ByteSpan(rebuilt, p.n), ByteSpan(root, p.n)));
}

INSTANTIATE_TEST_SUITE_P(HeightsAndLeaves, TreehashProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u),
                       ::testing::Values(0u, 1u, 2u, 5u, 7u, 12u, 63u)));

TEST(Treehash, RootIndependentOfAuthLeaf)
{
    const Params &p = Params::sphincs128f();
    Rng rng(50);
    Context ctx = makeContext(rng, p);

    Address adrs_a, adrs_b;
    adrs_a.setType(AddrType::ForsTree);
    adrs_b.setType(AddrType::ForsTree);

    auto leaf_fn = syntheticLeaf(ctx, 0);
    const unsigned height = 4;

    ByteVec auth(height * p.n);
    uint8_t root_a[maxN], root_b[maxN];
    treehash(root_a, auth.data(), ctx, 3, 0, height, leaf_fn, adrs_a);
    treehash(root_b, auth.data(), ctx, 11, 0, height, leaf_fn, adrs_b);
    EXPECT_TRUE(ctEqual(ByteSpan(root_a, p.n), ByteSpan(root_b, p.n)));
}

TEST(Treehash, NullAuthPathAllowed)
{
    const Params &p = Params::sphincs128f();
    Rng rng(51);
    Context ctx = makeContext(rng, p);
    Address adrs;
    adrs.setType(AddrType::ForsTree);
    uint8_t root[maxN];
    auto leaf_fn = syntheticLeaf(ctx, 0);
    EXPECT_NO_THROW(
        treehash(root, nullptr, ctx, 0, 0, 3, leaf_fn, adrs));
}

TEST(Treehash, IdxOffsetChangesRoot)
{
    // FORS trees differ only by their index offset; the roots must
    // differ even for identical leaf contents ordering.
    const Params &p = Params::sphincs128f();
    Rng rng(52);
    Context ctx = makeContext(rng, p);

    Address a1, a2;
    a1.setType(AddrType::ForsTree);
    a2.setType(AddrType::ForsTree);

    uint8_t r1[maxN], r2[maxN];
    treehash(r1, nullptr, ctx, 0, 0, 3, syntheticLeaf(ctx, 0), a1);
    treehash(r2, nullptr, ctx, 0, 8, 3, syntheticLeaf(ctx, 8), a2);
    EXPECT_FALSE(ctEqual(ByteSpan(r1, p.n), ByteSpan(r2, p.n)));
}

TEST(Treehash, RejectsOversizedHeight)
{
    const Params &p = Params::sphincs128f();
    Rng rng(55);
    Context ctx = makeContext(rng, p);
    Address adrs;
    uint8_t root[maxN];
    EXPECT_THROW(treehash(root, nullptr, ctx, 0, 0,
                          TreehashStream::maxHeight + 1,
                          syntheticLeaf(ctx, 0), adrs),
                 std::invalid_argument);
}

TEST(MerkleSign, RootMatchesComputeRootThroughWots)
{
    const Params &p = Params::sphincs128f();
    Rng rng(53);
    Context ctx = makeContext(rng, p);

    const uint32_t layer = 1;
    const uint64_t tree = 9;
    const uint32_t leaf_idx = 5;

    ByteVec msg = rng.bytes(p.n);
    ByteVec sig(p.xmssSigBytes());
    uint8_t root[maxN];
    merkleSign(sig.data(), root, ctx, layer, tree, leaf_idx, msg.data());

    // Verify side: recover the WOTS pk, then climb the auth path.
    Address wots_adrs;
    wots_adrs.setLayer(layer);
    wots_adrs.setTree(tree);
    wots_adrs.setType(AddrType::WotsHash);
    wots_adrs.setKeypair(leaf_idx);

    uint8_t leaf[maxN];
    wotsPkFromSig(leaf, sig.data(), msg.data(), ctx, wots_adrs);

    Address tree_adrs;
    tree_adrs.setLayer(layer);
    tree_adrs.setTree(tree);
    tree_adrs.setType(AddrType::Tree);

    uint8_t rebuilt[maxN];
    computeRoot(rebuilt, ctx, leaf, leaf_idx, 0,
                sig.data() + p.wotsSigBytes(), p.treeHeight(), tree_adrs);
    EXPECT_TRUE(ctEqual(ByteSpan(rebuilt, p.n), ByteSpan(root, p.n)));
}

TEST(MerkleSign, WotsGenLeafMatchesPkGen)
{
    const Params &p = Params::sphincs128f();
    Rng rng(54);
    Context ctx = makeContext(rng, p);

    uint8_t leaf[maxN];
    wotsGenLeaf(leaf, ctx, 2, 4, 1);

    Address adrs;
    adrs.setLayer(2);
    adrs.setTree(4);
    adrs.setType(AddrType::WotsHash);
    adrs.setKeypair(1);
    uint8_t pk[maxN];
    wotsPkGen(pk, ctx, adrs);

    EXPECT_TRUE(ctEqual(ByteSpan(leaf, p.n), ByteSpan(pk, p.n)));
}

namespace
{

/**
 * Per-signature reference for one merkleSignXN member: wotsSign for
 * the signing keypair, then the LeafFn treehash over wotsPkGen
 * leaves. Returns the compressions of the leaves and the tree alone,
 * which is what the fused layer must spend: its signature comes out
 * of the leaf walk instead of a wotsSign walk of its own.
 */
uint64_t
perMemberLayerSign(uint8_t *sig, uint8_t *root, const Context &ctx,
                   uint32_t layer, uint64_t tree, uint32_t leaf_idx,
                   const uint8_t *msg)
{
    const Params &p = ctx.params();
    Address wots_adrs;
    wots_adrs.setLayer(layer);
    wots_adrs.setTree(tree);
    wots_adrs.setType(AddrType::WotsHash);
    wots_adrs.setKeypair(leaf_idx);
    wotsSign(sig, msg, ctx, wots_adrs);

    Address tree_adrs;
    tree_adrs.setLayer(layer);
    tree_adrs.setTree(tree);
    tree_adrs.setType(AddrType::Tree);
    const uint64_t c0 = Sha256::compressionCount();
    treehash(root, sig + p.wotsSigBytes(), ctx, leaf_idx, 0,
             p.treeHeight(),
             LeafFn([&](uint8_t *out, uint32_t j) {
                 Address leaf_adrs = wots_adrs;
                 leaf_adrs.setKeypair(j);
                 wotsPkGen(out, ctx, leaf_adrs);
             }),
             tree_adrs);
    return Sha256::compressionCount() - c0;
}

} // namespace

TEST(MerkleFusion, LayerSignMatchesPerMemberReference)
{
    for (const Params &p : Params::all()) {
        SCOPED_TRACE(p.name);
        Rng rng(56 + p.n);
        const Context ctx = makeContext(rng, p);
        const uint32_t layer = 1;

        for (unsigned count : {1u, 3u, 16u}) {
            SCOPED_TRACE("signatures " + std::to_string(count));
            // Distinct (tree, leaf, message) per member.
            std::vector<uint64_t> trees(count);
            std::vector<uint32_t> leaves(count);
            std::vector<ByteVec> msgs(count);
            std::vector<ByteVec> ref_sigs(count, ByteVec(p.xmssSigBytes()));
            std::vector<ByteVec> ref_roots(count, ByteVec(p.n));
            uint64_t ref_comps = 0;
            for (unsigned l = 0; l < count; ++l) {
                trees[l] = 1000 + 7 * l;
                leaves[l] = (3 + 5 * l) % p.treeLeaves();
                msgs[l] = rng.bytes(p.n);
                ref_comps += perMemberLayerSign(
                    ref_sigs[l].data(), ref_roots[l].data(), ctx, layer,
                    trees[l], leaves[l], msgs[l].data());
            }

            for (const LaneTier &tier : laneTiers) {
                SCOPED_TRACE(tier.name);
                ScopedTier pin(tier);
                std::vector<ByteVec> sigs(count, ByteVec(p.xmssSigBytes()));
                std::vector<ByteVec> roots(count, ByteVec(p.n));
                uint8_t *sig_ptrs[maxHashLanes];
                uint8_t *root_ptrs[maxHashLanes];
                const uint8_t *msg_ptrs[maxHashLanes];
                for (unsigned l = 0; l < count; ++l) {
                    sig_ptrs[l] = sigs[l].data();
                    root_ptrs[l] = roots[l].data();
                    msg_ptrs[l] = msgs[l].data();
                }
                const uint64_t c0 = Sha256::compressionCount();
                merkleSignXN(sig_ptrs, root_ptrs, ctx, layer, trees.data(),
                             leaves.data(), msg_ptrs, count);
                EXPECT_EQ(Sha256::compressionCount() - c0, ref_comps);
                for (unsigned l = 0; l < count; ++l) {
                    EXPECT_EQ(hexEncode(sigs[l]), hexEncode(ref_sigs[l]))
                        << "signature " << l;
                    EXPECT_EQ(hexEncode(roots[l]), hexEncode(ref_roots[l]))
                        << "signature " << l;
                }

                // Without signature outputs (keygen) only the roots
                // come out, the same ones.
                std::vector<ByteVec> bare(count, ByteVec(p.n));
                for (unsigned l = 0; l < count; ++l)
                    root_ptrs[l] = bare[l].data();
                merkleSignXN(nullptr, root_ptrs, ctx, layer, trees.data(),
                             nullptr, nullptr, count);
                for (unsigned l = 0; l < count; ++l)
                    EXPECT_EQ(hexEncode(bare[l]), hexEncode(ref_roots[l]))
                        << "signature " << l;
            }
        }
    }
}

TEST(MerkleFusion, RejectsBadCounts)
{
    const Params &p = Params::sphincs128f();
    Rng rng(57);
    const Context ctx = makeContext(rng, p);
    uint8_t root[maxN];
    uint8_t *roots[1] = {root};
    const uint64_t trees[1] = {0};
    EXPECT_THROW(merkleSignXN(nullptr, roots, ctx, 0, trees, nullptr,
                              nullptr, 0),
                 std::invalid_argument);
    EXPECT_THROW(merkleSignXN(nullptr, roots, ctx, 0, trees, nullptr,
                              nullptr, maxHashLanes + 1),
                 std::invalid_argument);
}
