/**
 * @file
 * Merkle tree machinery shared by FORS and the hypertree (MSS):
 * stack-based treehash with authentication-path extraction, the
 * verification-side root reconstruction, and the MSS layer signing
 * step (WOTS+ sign + auth path) of paper §II-A3/A4, run for one or
 * several signatures in lockstep.
 */

#ifndef HEROSIGN_SPHINCS_MERKLE_HH
#define HEROSIGN_SPHINCS_MERKLE_HH

#include <functional>

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Leaf generator callback: produce the n-byte leaf with *local* index
 * @p leaf_idx (offsets are applied by the callback via its captured
 * addressing state).
 */
using LeafFn = std::function<void(uint8_t *out, uint32_t leaf_idx)>;

/**
 * Incremental stack-based treehash over one Merkle tree: leaves are
 * absorbed in index order (any batch sizes), the root and the
 * authentication path for one leaf fall out once all 2^height leaves
 * have been absorbed. forsSignXN() and merkleSignXN() park a stream
 * per tree and feed it leaves from pooled hash batches; the one-shot
 * treehash() below is a thin wrapper over it, so the two paths are
 * byte-identical by construction.
 *
 * Streams of identical shape (same height, absorbed in lockstep) can
 * additionally pool their node-combine hashes across trees via
 * absorbLockstep(): same-shape trees at the same leaf position have
 * identical stack states, so every combine triggered by one absorbed
 * leaf runs as one lane-batched thashX call across the group instead
 * of per-tree scalar calls.
 */
class TreehashStream
{
  public:
    /** Largest tree height a stream can hold. */
    static constexpr unsigned maxHeight =
        maxTreeHeight > maxForsHeight ? maxTreeHeight : maxForsHeight;

    TreehashStream() = default;

    /**
     * Arm the stream for one tree. Absorbed-leaf state resets.
     * @param ctx hashing context (must outlive the stream's use)
     * @param height tree height (at most maxHeight)
     * @param leaf_idx leaf whose auth path to extract (local index)
     * @param idx_offset added to node indices in the hash addresses
     * @param auth_path out, height * n bytes (nullptr to skip)
     * @param tree_adrs address with layer/tree/type set
     */
    void begin(const Context &ctx, unsigned height, uint32_t leaf_idx,
               uint32_t idx_offset, uint8_t *auth_path,
               const Address &tree_adrs);

    /**
     * Absorb @p count consecutive leaves (n bytes each, contiguous),
     * combining nodes with scalar hash calls as the stack collapses.
     */
    void absorb(const uint8_t *leaves, uint32_t count);

    /** Leaves absorbed so far. */
    uint32_t absorbed() const { return next_; }

    /** Total leaves this tree expects (2^height). */
    uint32_t total() const { return total_; }

    /** True once every leaf has been absorbed. */
    bool done() const { return next_ == total_; }

    /** The n-byte root; valid only when done(). */
    const uint8_t *root() const;

    /**
     * Absorb one leaf into each of @p count same-shape streams in
     * lockstep, running each collapse level as one thashX batch
     * across the group. All streams must share one Context and have
     * equal height and absorbed count (checked, throws
     * std::invalid_argument); results are byte-identical to absorbing
     * each stream separately.
     * @param leaves count pointers to n-byte leaves (leaves[l] feeds
     *        streams[l])
     * @param count 1..maxHashLanes streams
     */
    static void absorbLockstep(TreehashStream *const streams[],
                               const uint8_t *const leaves[],
                               unsigned count);

  private:
    void absorbOne(const uint8_t *leaf);

    const Context *ctx_ = nullptr;
    Address adrs_;
    uint8_t *auth_ = nullptr;
    uint32_t leafIdx_ = 0;
    uint32_t idxOffset_ = 0;
    uint32_t next_ = 0;
    uint32_t total_ = 0;
    unsigned height_ = 0;
    unsigned sp_ = 0;
    uint8_t stack_[(maxHeight + 1) * maxN];
    unsigned stackHeights_[maxHeight + 1];
};

/**
 * Stack-based treehash: computes the root of a 2^height-leaf Merkle
 * tree and the authentication path for @p leaf_idx, one scalar leaf
 * callback and one scalar node combine at a time. The signing path
 * does not use it (forsSignXN() and merkleSignXN() pool leaves and
 * combines across trees); it is the plain reference their tests
 * check against.
 *
 * @param root out, n bytes
 * @param auth_path out, height * n bytes (may be nullptr to skip)
 * @param leaf_idx index of the authenticated leaf (local, 0-based)
 * @param idx_offset added to node indices in the hash addresses (used
 *        by FORS where tree i starts at leaf index i * t)
 * @param height tree height (at most TreehashStream::maxHeight)
 * @param gen_leaf leaf generator (receives local indices; must apply
 *        idx_offset itself when addressing)
 * @param tree_adrs address with layer/tree/type set; height/index
 *        fields are managed here
 */
void treehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
              uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
              const LeafFn &gen_leaf, Address &tree_adrs);

/**
 * Verification-side root reconstruction from a leaf and its auth
 * path, one node at a time (forsPkFromSig() and the tests' reference
 * verifier; the library's verify path uses computeRootXN()).
 */
void computeRoot(uint8_t *root, const Context &ctx, const uint8_t *leaf,
                 uint32_t leaf_idx, uint32_t idx_offset,
                 const uint8_t *auth_path, unsigned height,
                 Address &tree_adrs);

/**
 * Batched root reconstruction: up to maxHashLanes independent
 * auth-path walks of one shared @p height advanced level by level in
 * hash lanes of the dispatched width. Lane l reconstructs from
 * leaf[l] / auth_path[l] with its own leaf index, index offset and
 * subtree address, so the lanes may come from different FORS trees,
 * different signatures, or both. Results are byte-identical to count
 * computeRoot calls at every width.
 *
 * @param root count pointers to n-byte outputs (may alias leaf[l])
 * @param tree_adrs count addresses with layer/tree/type set; the
 *        height/index fields are managed here (the array is scratch)
 * @param count active lanes, 1..maxHashLanes
 */
void computeRootXN(uint8_t *const root[], const Context &ctx,
                   const uint8_t *const leaf[], const uint32_t leaf_idx[],
                   const uint32_t idx_offset[],
                   const uint8_t *const auth_path[], unsigned height,
                   Address tree_adrs[], unsigned count);

/**
 * Generate the hypertree leaf (compressed WOTS+ public key) for
 * keypair @p leaf_idx in the subtree addressed by layer/tree.
 */
void wotsGenLeaf(uint8_t *leaf_out, const Context &ctx, uint32_t layer,
                 uint64_t tree, uint32_t leaf_idx);

/**
 * One MSS layer of the hypertree for @p count signatures sharing one
 * context: signature l WOTS+-signs @p msg[l] with keypair
 * @p leaf_idx[l] of subtree (layer, tree[l]), emits that WOTS+
 * signature followed by the auth path, and returns the subtree root.
 * The count * 2^(h/d) WOTS+ leaves are pooled through
 * wotsLeafBatch(), and each signing keypair's signature is captured
 * during its leaf's chain walk, so no separate wotsSign() walk runs.
 * The count same-shape subtrees climb in lockstep through
 * TreehashStream::absorbLockstep(). Byte-identical to wotsSign() plus
 * treehash() over wotsPkGen() leaves, per signature, at every lane
 * width.
 *
 * @param sig count pointers to xmssSigBytes() outputs (wots sig +
 *        treeHeight * n), or nullptr to compute the roots alone
 *        (keygen); @p leaf_idx and @p msg are then unused
 * @param root_out count pointers to n-byte subtree roots (the
 *        messages of the next layer); root_out[l] may alias msg[l]
 * @param msg count pointers to the n-byte messages (lower roots)
 * @param count 1..maxHashLanes signatures
 */
void merkleSignXN(uint8_t *const sig[], uint8_t *const root_out[],
                  const Context &ctx, uint32_t layer,
                  const uint64_t tree[], const uint32_t leaf_idx[],
                  const uint8_t *const msg[], unsigned count);

/** merkleSignXN() for one signature. */
void merkleSign(uint8_t *sig, uint8_t *root_out, const Context &ctx,
                uint32_t layer, uint64_t tree, uint32_t leaf_idx,
                const uint8_t *msg);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_MERKLE_HH
