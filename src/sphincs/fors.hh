/**
 * @file
 * FORS — Forest of Random Subsets (spec §5). k Merkle trees of height
 * a; the message digest selects one leaf per tree. Each tree is
 * independent, the property HERO-Sign's FORS Fusion builds on
 * (paper §III-B): forsSignXN() builds the trees of one or several
 * signatures in lockstep groups.
 */

#ifndef HEROSIGN_SPHINCS_FORS_HH
#define HEROSIGN_SPHINCS_FORS_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"
#include "sphincs/merkle.hh"

namespace herosign::sphincs
{

/**
 * Extract the k FORS leaf indices (a bits each, MSB first) from the
 * message-hash prefix.
 * @param indices out, k entries in [0, 2^a)
 * @param mhash at least forsMsgBytes() bytes
 */
void messageToIndices(uint32_t *indices, const Params &params,
                      const uint8_t *mhash);

/**
 * Derive the FORS secret leaf value at absolute leaf index @p idx
 * (idx = tree * t + leaf).
 * @param fors_adrs ForsTree-typed address with layer/tree/keypair set
 */
void forsSkGen(uint8_t *out, const Context &ctx, const Address &fors_adrs,
               uint32_t idx);

/**
 * Compute the FORS leaf (F of the secret value) at absolute index
 * @p idx.
 */
void forsGenLeaf(uint8_t *out, const Context &ctx,
                 const Address &fors_adrs, uint32_t idx);

/**
 * One FORS leaf of pooled hash work: leaf @p idx (absolute index,
 * tree * t + position) of the forest addressed by @p adrs, written to
 * @p out. Requests in one forsLeafBatch() call may come from
 * different trees, keypairs and signatures — each carries its own
 * base address — so forsSignXN() can fill hash lanes across the trees
 * of several signatures.
 */
struct ForsLeafReq
{
    Address adrs;          ///< ForsTree-typed, layer/tree/keypair set
    uint32_t idx = 0;      ///< absolute leaf index
    uint8_t *out = nullptr; ///< n bytes
};

/**
 * Compute @p count FORS leaves described by @p reqs, pooling the PRF
 * and F calls into lane batches of the dispatched width
 * (maxHashLanes leaves per internal sub-batch). Byte-identical to
 * per-leaf forsGenLeaf() calls at every width. @p count is unbounded.
 */
void forsLeafBatch(const Context &ctx, const ForsLeafReq reqs[],
                   unsigned count);

/**
 * Build @p count FORS trees in lockstep: the pass behind
 * forsSignXN()'s Tree Fusion. Leaves are generated in waves of
 * maxHashLanes positions across all count trees (one pooled
 * forsLeafBatch() per wave), then every position is absorbed into
 * the count streams with one TreehashStream::absorbLockstep(), so
 * each node combine runs as one lane batch across the trees.
 * Byte-identical to building each tree alone.
 * @param streams count streams begun on trees of height a with no
 *        leaf absorbed yet; each is done() on return
 * @param first count descriptors of each tree's leaf 0 (its address
 *        and absolute index; out is ignored). Leaf q of stream l is
 *        absolute index first[l].idx + q under first[l].adrs.
 * @param count 1..maxHashLanes trees
 */
void forsTreesLockstep(const Context &ctx, TreehashStream *const streams[],
                       const ForsLeafReq first[], unsigned count);

/**
 * FORS signatures for @p count signatures sharing one context, the
 * sign-side twin of forsPkFromSigXN(). Each signature's block holds,
 * for each of its k trees, the selected secret value followed by its
 * authentication path. The count * k (signature, tree) pairs are
 * independent and equal in shape, so they build in chunks of
 * maxHashLanes through forsTreesLockstep() (paper §III-B Tree
 * Fusion); a chunk may span signatures, and the last, narrower chunk
 * runs padded (a lone leftover tree combines scalar). The secret
 * values of a chunk take one PRF batch and the count T_k root
 * compressions one more. Byte-identical, with an equal compression
 * count, to building every tree alone with treehash() over
 * forsGenLeaf() leaves.
 *
 * @param sig count pointers to forsSigBytes() outputs
 * @param pk_out count pointers to n-byte FORS public keys (the
 *        messages signed by the bottom hypertree layer)
 * @param mhash count pointers to forsMsgBytes() digest prefixes
 * @param fors_adrs count ForsTree-typed addresses with
 *        layer(0)/tree/keypair set
 * @param count 1..maxHashLanes signatures
 */
void forsSignXN(uint8_t *const sig[], uint8_t *const pk_out[],
                const uint8_t *const mhash[], const Context &ctx,
                const Address fors_adrs[], unsigned count);

/** forsSignXN() for one signature. */
void forsSign(uint8_t *sig, uint8_t *pk_out, const uint8_t *mhash,
              const Context &ctx, const Address &fors_adrs);

/**
 * Verification direction: recompute the FORS public key from a
 * signature, one tree at a time. The library verifies through
 * forsPkFromSigXN(); this is the reference the tests check it with.
 */
void forsPkFromSig(uint8_t *pk_out, const uint8_t *sig,
                   const uint8_t *mhash, const Context &ctx,
                   const Address &fors_adrs);

/**
 * Batched verification direction for up to maxHashLanes signatures
 * sharing one context: all count * k revealed leaves hash in batches
 * of the dispatched lane width and the count * k independent
 * auth-path walks (equal height a) climb in lockstep lanes, followed
 * by one batched root compression per lane. Lanes may select
 * different hypertree positions (per-lane address). Byte-identical to
 * count forsPkFromSig calls at every width.
 *
 * @param pk_out count pointers to n-byte FORS public keys
 * @param sig count pointers to forsSigBytes() signature blocks
 * @param mhash count pointers to forsMsgBytes() digest prefixes
 * @param fors_adrs count ForsTree-typed addresses with
 *        layer(0)/tree/keypair set
 * @param count active lanes, 1..maxHashLanes
 */
void forsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                     const uint8_t *const mhash[], const Context &ctx,
                     const Address fors_adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_FORS_HH
