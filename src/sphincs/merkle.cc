#include "sphincs/merkle.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"
#include "sphincs/wots.hh"

namespace herosign::sphincs
{

void
TreehashStream::begin(const Context &ctx, unsigned height,
                      uint32_t leaf_idx, uint32_t idx_offset,
                      uint8_t *auth_path, const Address &tree_adrs)
{
    if (height > maxHeight)
        throw std::invalid_argument(
            "TreehashStream: height exceeds bound");
    ctx_ = &ctx;
    adrs_ = tree_adrs;
    auth_ = auth_path;
    leafIdx_ = leaf_idx;
    idxOffset_ = idx_offset;
    next_ = 0;
    total_ = 1u << height;
    height_ = height;
    sp_ = 0;
}

void
TreehashStream::absorbOne(const uint8_t *leaf)
{
    const unsigned n = ctx_->params().n;
    const uint32_t idx = next_;
    uint8_t node[maxN];
    std::memcpy(node, leaf, n);

    unsigned node_height = 0;
    if (auth_ && (leafIdx_ ^ 1u) == idx)
        std::memcpy(auth_, node, n);

    while (sp_ > 0 && stackHeights_[sp_ - 1] == node_height) {
        // Combine the stacked left sibling with this node.
        adrs_.setTreeHeight(node_height + 1);
        adrs_.setTreeIndex((idx >> (node_height + 1)) +
                           (idxOffset_ >> (node_height + 1)));
        const uint8_t *left = stack_ + static_cast<size_t>(sp_ - 1) * n;
        thashH(node, *ctx_, adrs_, left, node);
        --sp_;
        ++node_height;

        if (auth_ && ((leafIdx_ >> node_height) ^ 1u) ==
                         (idx >> node_height)) {
            std::memcpy(auth_ + node_height * n, node, n);
        }
    }
    std::memcpy(stack_ + static_cast<size_t>(sp_) * n, node, n);
    stackHeights_[sp_] = node_height;
    ++sp_;
    ++next_;
}

void
TreehashStream::absorb(const uint8_t *leaves, uint32_t count)
{
    if (!ctx_)
        throw std::logic_error("TreehashStream: absorb before begin");
    if (next_ + count > total_)
        throw std::invalid_argument(
            "TreehashStream: absorbing past the leaf count");
    const unsigned n = ctx_->params().n;
    for (uint32_t i = 0; i < count; ++i)
        absorbOne(leaves + static_cast<size_t>(i) * n);
}

const uint8_t *
TreehashStream::root() const
{
    if (!done())
        throw std::logic_error(
            "TreehashStream: root before all leaves absorbed");
    return stack_;
}

void
TreehashStream::absorbLockstep(TreehashStream *const streams[],
                               const uint8_t *const leaves[],
                               unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "TreehashStream::absorbLockstep: count must be 1..16");
    const TreehashStream &lead = *streams[0];
    if (!lead.ctx_)
        throw std::logic_error(
            "TreehashStream: absorbLockstep before begin");
    for (unsigned l = 1; l < count; ++l) {
        if (streams[l]->ctx_ != lead.ctx_ ||
            streams[l]->height_ != lead.height_ ||
            streams[l]->next_ != lead.next_)
            throw std::invalid_argument(
                "TreehashStream::absorbLockstep: streams must share "
                "context, height and absorbed count");
    }

    const unsigned n = lead.ctx_->params().n;
    const uint32_t idx = lead.next_;
    if (idx >= lead.total_)
        throw std::invalid_argument(
            "TreehashStream: absorbing past the leaf count");

    // Per-stream current node plus the left||right pair scratch each
    // batched combine hashes from.
    uint8_t nodes[maxHashLanes][maxN];
    uint8_t pairs[maxHashLanes][2 * maxN];
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        std::memcpy(nodes[l], leaves[l], n);
        TreehashStream &s = *streams[l];
        if (s.auth_ && (s.leafIdx_ ^ 1u) == idx)
            std::memcpy(s.auth_, nodes[l], n);
        outs[l] = nodes[l];
        ins[l] = pairs[l];
    }

    // Same-shape streams at the same position collapse identically,
    // so the cascade depth is shared and each level is one batch.
    unsigned node_height = 0;
    while (lead.sp_ > 0 &&
           lead.stackHeights_[lead.sp_ - 1] == node_height) {
        for (unsigned l = 0; l < count; ++l) {
            TreehashStream &s = *streams[l];
            s.adrs_.setTreeHeight(node_height + 1);
            s.adrs_.setTreeIndex((idx >> (node_height + 1)) +
                                 (s.idxOffset_ >> (node_height + 1)));
            adrs[l] = s.adrs_;
            const uint8_t *left =
                s.stack_ + static_cast<size_t>(s.sp_ - 1) * n;
            std::memcpy(pairs[l], left, n);
            std::memcpy(pairs[l] + n, nodes[l], n);
        }
        thashX(outs, *lead.ctx_, adrs, ins, 2 * static_cast<size_t>(n),
               count);
        ++node_height;
        for (unsigned l = 0; l < count; ++l) {
            TreehashStream &s = *streams[l];
            --s.sp_;
            if (s.auth_ && ((s.leafIdx_ >> node_height) ^ 1u) ==
                               (idx >> node_height))
                std::memcpy(s.auth_ + node_height * n, nodes[l], n);
        }
    }

    for (unsigned l = 0; l < count; ++l) {
        TreehashStream &s = *streams[l];
        std::memcpy(s.stack_ + static_cast<size_t>(s.sp_) * n, nodes[l],
                    n);
        s.stackHeights_[s.sp_] = node_height;
        ++s.sp_;
        ++s.next_;
    }
}

void
treehash(uint8_t *root, uint8_t *auth_path, const Context &ctx,
         uint32_t leaf_idx, uint32_t idx_offset, unsigned height,
         const LeafFn &gen_leaf, Address &tree_adrs)
{
    TreehashStream stream;
    stream.begin(ctx, height, leaf_idx, idx_offset, auth_path,
                 tree_adrs);
    uint8_t leaf[maxN];
    for (uint32_t i = 0; i < stream.total(); ++i) {
        gen_leaf(leaf, i);
        stream.absorb(leaf, 1);
    }
    std::memcpy(root, stream.root(), ctx.params().n);
}

void
computeRoot(uint8_t *root, const Context &ctx, const uint8_t *leaf,
            uint32_t leaf_idx, uint32_t idx_offset,
            const uint8_t *auth_path, unsigned height, Address &tree_adrs)
{
    const unsigned n = ctx.params().n;
    uint8_t node[maxN];
    std::memcpy(node, leaf, n);

    for (unsigned h = 0; h < height; ++h) {
        tree_adrs.setTreeHeight(h + 1);
        tree_adrs.setTreeIndex((leaf_idx >> (h + 1)) +
                               (idx_offset >> (h + 1)));
        if ((leaf_idx >> h) & 1u)
            thashH(node, ctx, tree_adrs, auth_path + h * n, node);
        else
            thashH(node, ctx, tree_adrs, node, auth_path + h * n);
    }
    std::memcpy(root, node, n);
}

void
computeRootXN(uint8_t *const root[], const Context &ctx,
              const uint8_t *const leaf[], const uint32_t leaf_idx[],
              const uint32_t idx_offset[],
              const uint8_t *const auth_path[], unsigned height,
              Address tree_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "computeRootXN: count must be 1..16");
    const unsigned n = ctx.params().n;

    // Current node per lane; the walks advance in lockstep because
    // every lane climbs the same number of levels.
    uint8_t nodes[maxHashLanes][maxN];
    uint8_t pairs[maxHashLanes][2 * maxN];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        std::memcpy(nodes[l], leaf[l], n);
        outs[l] = nodes[l];
        ins[l] = pairs[l];
    }

    for (unsigned h = 0; h < height; ++h) {
        for (unsigned l = 0; l < count; ++l) {
            tree_adrs[l].setTreeHeight(h + 1);
            tree_adrs[l].setTreeIndex((leaf_idx[l] >> (h + 1)) +
                                      (idx_offset[l] >> (h + 1)));
            const uint8_t *sibling = auth_path[l] + h * n;
            if ((leaf_idx[l] >> h) & 1u) {
                std::memcpy(pairs[l], sibling, n);
                std::memcpy(pairs[l] + n, nodes[l], n);
            } else {
                std::memcpy(pairs[l], nodes[l], n);
                std::memcpy(pairs[l] + n, sibling, n);
            }
        }
        thashX(outs, ctx, tree_adrs, ins, 2 * n, count);
    }
    for (unsigned l = 0; l < count; ++l)
        std::memcpy(root[l], nodes[l], n);
}

void
wotsGenLeaf(uint8_t *leaf_out, const Context &ctx, uint32_t layer,
            uint64_t tree, uint32_t leaf_idx)
{
    Address adrs;
    adrs.setLayer(layer);
    adrs.setTree(tree);
    adrs.setKeypair(leaf_idx);
    wotsPkGen(leaf_out, ctx, adrs);
}

void
merkleSignXN(uint8_t *const sig[], uint8_t *const root_out[],
             const Context &ctx, uint32_t layer, const uint64_t tree[],
             const uint32_t leaf_idx[], const uint8_t *const msg[],
             unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("merkleSignXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const uint32_t leaves = p.treeLeaves();

    // The chain lengths come from the messages before any root is
    // written, so root_out may alias msg.
    uint32_t lengths[maxHashLanes][maxWotsLen];
    TreehashStream streams[maxHashLanes];
    TreehashStream *group[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        if (sig)
            chainLengths(lengths[l], p, msg[l]);
        Address tree_adrs;
        tree_adrs.setLayer(layer);
        tree_adrs.setTree(tree[l]);
        tree_adrs.setType(AddrType::Tree);
        streams[l].begin(ctx, p.treeHeight(), sig ? leaf_idx[l] : 0, 0,
                         sig ? sig[l] + p.wotsSigBytes() : nullptr,
                         tree_adrs);
        group[l] = &streams[l];
    }

    // Leaves in waves of up to maxHashLanes positions across the
    // group, one pooled wotsLeafBatch() per wave; the signing leaves'
    // signatures are captured in passing. Then every position is
    // absorbed into the count streams with one absorbLockstep().
    constexpr uint32_t posChunk = maxHashLanes;
    uint8_t slab[posChunk * maxHashLanes * maxN];
    WotsLeafReq reqs[posChunk * maxHashLanes];
    const uint8_t *leaf_ptrs[maxHashLanes];
    for (uint32_t j0 = 0; j0 < leaves; j0 += posChunk) {
        const uint32_t jc = std::min(posChunk, leaves - j0);
        unsigned nr = 0;
        for (uint32_t q = 0; q < jc; ++q) {
            for (unsigned l = 0; l < count; ++l, ++nr) {
                const bool signing = sig && j0 + q == leaf_idx[l];
                reqs[nr].layer = layer;
                reqs[nr].tree = tree[l];
                reqs[nr].keypair = j0 + q;
                reqs[nr].leafOut = slab + static_cast<size_t>(nr) * n;
                reqs[nr].sigOut = signing ? sig[l] : nullptr;
                reqs[nr].lengths = signing ? lengths[l] : nullptr;
            }
        }
        wotsLeafBatch(ctx, reqs, nr);
        for (uint32_t q = 0; q < jc; ++q) {
            for (unsigned l = 0; l < count; ++l)
                leaf_ptrs[l] = slab + static_cast<size_t>(q * count + l) * n;
            TreehashStream::absorbLockstep(group, leaf_ptrs, count);
        }
    }
    for (unsigned l = 0; l < count; ++l)
        std::memcpy(root_out[l], streams[l].root(), n);
}

void
merkleSign(uint8_t *sig, uint8_t *root_out, const Context &ctx,
           uint32_t layer, uint64_t tree, uint32_t leaf_idx,
           const uint8_t *msg)
{
    merkleSignXN(&sig, &root_out, ctx, layer, &tree, &leaf_idx, &msg, 1);
}

} // namespace herosign::sphincs
