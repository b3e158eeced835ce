/**
 * @file
 * Reference verifier for the tests: one signature walked through
 * FORS and the d hypertree layers with the scalar kernels
 * forsPkFromSig, wotsPkFromSig and computeRoot. SphincsPlus::verify()
 * is verifyBatch() with a group of one, so checking one against the
 * other would compare the routine with itself; the verify tests
 * compare both with this walk instead.
 */

#ifndef HEROSIGN_TESTS_SPHINCS_REFERENCE_VERIFY_HH
#define HEROSIGN_TESTS_SPHINCS_REFERENCE_VERIFY_HH

#include "sphincs/fors.hh"
#include "sphincs/merkle.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thash.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs::test
{

/**
 * Whether @p sig is a valid signature over @p msg under @p pk, with
 * @p ctx built for @p pk's parameter set and pk_seed (not checked).
 */
inline bool
referenceVerify(const Context &ctx, ByteSpan msg, ByteSpan sig,
                const PublicKey &pk)
{
    const Params &p = pk.params;
    const unsigned n = p.n;
    if (sig.size() != p.sigBytes())
        return false;

    const uint8_t *in = sig.data();
    ByteVec digest(p.msgDigestBytes());
    hashMessage(digest, ctx, ByteSpan(in, n), pk.pkRoot, msg);
    in += n;
    DigestSplit split = splitDigest(p, digest);
    uint64_t idx_tree = split.idxTree;
    uint32_t idx_leaf = split.idxLeaf;

    Address fors_adrs;
    fors_adrs.setLayer(0);
    fors_adrs.setTree(idx_tree);
    fors_adrs.setType(AddrType::ForsTree);
    fors_adrs.setKeypair(idx_leaf);
    uint8_t root[maxN];
    forsPkFromSig(root, in, split.forsMsg.data(), ctx, fors_adrs);
    in += p.forsSigBytes();

    const unsigned h = p.treeHeight();
    for (uint32_t layer = 0; layer < p.layers; ++layer) {
        Address wots_adrs;
        wots_adrs.setLayer(layer);
        wots_adrs.setTree(idx_tree);
        wots_adrs.setType(AddrType::WotsHash);
        wots_adrs.setKeypair(idx_leaf);
        uint8_t leaf[maxN];
        wotsPkFromSig(leaf, in, root, ctx, wots_adrs);
        in += p.wotsSigBytes();

        Address tree_adrs;
        tree_adrs.setLayer(layer);
        tree_adrs.setTree(idx_tree);
        tree_adrs.setType(AddrType::Tree);
        computeRoot(root, ctx, leaf, idx_leaf, 0, in, h, tree_adrs);
        in += static_cast<size_t>(h) * n;

        idx_leaf = static_cast<uint32_t>(idx_tree & ((1ULL << h) - 1));
        idx_tree >>= h;
    }
    return ctEqual(ByteSpan(root, n), pk.pkRoot);
}

} // namespace herosign::sphincs::test

#endif // HEROSIGN_TESTS_SPHINCS_REFERENCE_VERIFY_HH
