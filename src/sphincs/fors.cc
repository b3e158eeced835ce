#include "sphincs/fors.hh"

#include <algorithm>
#include <stdexcept>

#include "sphincs/merkle.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

namespace herosign::sphincs
{

void
messageToIndices(uint32_t *indices, const Params &params,
                 const uint8_t *mhash)
{
    const unsigned a = params.forsHeight;
    size_t offset = 0; // bit offset into mhash
    for (unsigned i = 0; i < params.forsTrees; ++i) {
        uint32_t idx = 0;
        for (unsigned bit = 0; bit < a; ++bit) {
            idx <<= 1;
            idx |= (mhash[offset >> 3] >> (7 - (offset & 7))) & 1u;
            ++offset;
        }
        indices[i] = idx;
    }
}

void
forsSkGen(uint8_t *out, const Context &ctx, const Address &fors_adrs,
          uint32_t idx)
{
    Address sk_adrs = fors_adrs;
    sk_adrs.setType(AddrType::ForsPrf);
    sk_adrs.setKeypair(fors_adrs.keypair());
    sk_adrs.setTreeHeight(0);
    sk_adrs.setTreeIndex(idx);
    prfAddr(out, ctx, sk_adrs);
}

void
forsGenLeaf(uint8_t *out, const Context &ctx, const Address &fors_adrs,
            uint32_t idx)
{
    uint8_t sk[maxN];
    forsSkGen(sk, ctx, fors_adrs, idx);
    Address leaf_adrs = fors_adrs;
    leaf_adrs.setTreeHeight(0);
    leaf_adrs.setTreeIndex(idx);
    thashF(out, ctx, leaf_adrs, sk);
}

void
forsLeafBatch(const Context &ctx, const ForsLeafReq reqs[],
              unsigned count)
{
    const unsigned n = ctx.params().n;
    uint8_t sks[maxHashLanes * maxN];
    Address adrs[maxHashLanes];
    uint8_t *outs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];

    for (unsigned base = 0; base < count; base += maxHashLanes) {
        const unsigned m = std::min(maxHashLanes, count - base);

        // Secret leaf values, one PRF batch.
        for (unsigned j = 0; j < m; ++j) {
            const ForsLeafReq &r = reqs[base + j];
            adrs[j] = r.adrs;
            adrs[j].setType(AddrType::ForsPrf);
            adrs[j].setKeypair(r.adrs.keypair());
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(r.idx);
            outs[j] = sks + static_cast<size_t>(j) * n;
        }
        prfAddrX(outs, ctx, adrs, m);

        // Leaves = F(sk), one batch.
        for (unsigned j = 0; j < m; ++j) {
            const ForsLeafReq &r = reqs[base + j];
            adrs[j] = r.adrs;
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(r.idx);
            outs[j] = r.out;
            ins[j] = sks + static_cast<size_t>(j) * n;
        }
        thashFX(outs, ctx, adrs, ins, m);
    }
}

void
forsTreesLockstep(const Context &ctx, TreehashStream *const streams[],
                  const ForsLeafReq first[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "forsTreesLockstep: count must be 1..16");
    const unsigned n = ctx.params().n;
    const uint32_t t = ctx.params().forsLeaves();

    // Leaf positions per wave: bounds the slab at 16 x 16 leaves.
    constexpr uint32_t posChunk = maxHashLanes;
    uint8_t slab[posChunk * maxHashLanes * maxN];
    ForsLeafReq reqs[posChunk * maxHashLanes];
    const uint8_t *leaves[maxHashLanes];
    for (uint32_t p0 = 0; p0 < t; p0 += posChunk) {
        const uint32_t pc = std::min(posChunk, t - p0);
        unsigned nr = 0;
        for (uint32_t q = 0; q < pc; ++q)
            for (unsigned l = 0; l < count; ++l) {
                reqs[nr].adrs = first[l].adrs;
                reqs[nr].idx = first[l].idx + p0 + q;
                reqs[nr].out = slab + static_cast<size_t>(nr) * n;
                ++nr;
            }
        forsLeafBatch(ctx, reqs, nr);
        for (uint32_t q = 0; q < pc; ++q) {
            for (unsigned l = 0; l < count; ++l)
                leaves[l] = slab + static_cast<size_t>(q * count + l) * n;
            TreehashStream::absorbLockstep(streams, leaves, count);
        }
    }
}

void
forsSignXN(uint8_t *const sig[], uint8_t *const pk_out[],
           const uint8_t *const mhash[], const Context &ctx,
           const Address fors_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("forsSignXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const unsigned k = p.forsTrees;
    const uint32_t t = p.forsLeaves();
    const size_t stride = static_cast<size_t>(p.forsHeight + 1) * n;

    uint32_t indices[maxHashLanes][64];
    Address tree_adrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        messageToIndices(indices[l], p, mhash[l]);
        tree_adrs[l] = fors_adrs[l];
        tree_adrs[l].setType(AddrType::ForsTree);
        tree_adrs[l].setKeypair(fors_adrs[l].keypair());
    }

    // Tree Fusion over the count * k (signature, tree) pairs: every
    // tree is independent and equal in shape, so each chunk of up to
    // maxHashLanes pairs builds in lockstep and every node combine is
    // one lane batch across the chunk, whichever signatures its trees
    // belong to. Each auth path lands after its secret value.
    uint8_t roots[maxHashLanes][64 * maxN];
    TreehashStream streams[maxHashLanes];
    TreehashStream *group[maxHashLanes];
    ForsLeafReq first[maxHashLanes];
    Address sk_adrs[maxHashLanes];
    uint8_t *sk_outs[maxHashLanes];
    uint8_t *root_outs[maxHashLanes];
    const unsigned pairs = count * k;
    for (unsigned g = 0; g < pairs; g += maxHashLanes) {
        const unsigned m = std::min(maxHashLanes, pairs - g);
        for (unsigned j = 0; j < m; ++j) {
            const unsigned l = (g + j) / k;
            const unsigned i = (g + j) % k;
            uint8_t *block = sig[l] + i * stride;
            sk_adrs[j] = tree_adrs[l];
            sk_adrs[j].setType(AddrType::ForsPrf);
            sk_adrs[j].setKeypair(fors_adrs[l].keypair());
            sk_adrs[j].setTreeHeight(0);
            sk_adrs[j].setTreeIndex(indices[l][i] + i * t);
            sk_outs[j] = block;
            streams[j].begin(ctx, p.forsHeight, indices[l][i], i * t,
                             block + n, tree_adrs[l]);
            group[j] = &streams[j];
            first[j].adrs = tree_adrs[l];
            first[j].idx = i * t;
            root_outs[j] = roots[l] + static_cast<size_t>(i) * n;
        }
        prfAddrX(sk_outs, ctx, sk_adrs, m);
        forsTreesLockstep(ctx, group, first, m);
        for (unsigned j = 0; j < m; ++j)
            std::memcpy(root_outs[j], streams[j].root(), n);
    }

    // One batched k*n-byte root compression per signature.
    Address pk_adrs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        pk_adrs[l] = fors_adrs[l];
        pk_adrs[l].setType(AddrType::ForsRoots);
        pk_adrs[l].setKeypair(fors_adrs[l].keypair());
        ins[l] = roots[l];
    }
    thashX(pk_out, ctx, pk_adrs, ins, static_cast<size_t>(k) * n, count);
}

void
forsSign(uint8_t *sig, uint8_t *pk_out, const uint8_t *mhash,
         const Context &ctx, const Address &fors_adrs)
{
    forsSignXN(&sig, &pk_out, &mhash, ctx, &fors_adrs, 1);
}

void
forsPkFromSig(uint8_t *pk_out, const uint8_t *sig, const uint8_t *mhash,
              const Context &ctx, const Address &fors_adrs)
{
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const uint32_t t = p.forsLeaves();

    uint32_t indices[64];
    messageToIndices(indices, p, mhash);

    uint8_t roots[64 * maxN];
    for (unsigned i = 0; i < p.forsTrees; ++i) {
        const uint32_t idx_offset = i * t;

        Address tree_adrs = fors_adrs;
        tree_adrs.setType(AddrType::ForsTree);
        tree_adrs.setKeypair(fors_adrs.keypair());

        // Leaf from the revealed secret value.
        uint8_t leaf[maxN];
        tree_adrs.setTreeHeight(0);
        tree_adrs.setTreeIndex(indices[i] + idx_offset);
        thashF(leaf, ctx, tree_adrs, sig);
        sig += n;

        computeRoot(roots + i * n, ctx, leaf, indices[i], idx_offset,
                    sig, p.forsHeight, tree_adrs);
        sig += p.forsHeight * n;
    }

    Address pk_adrs = fors_adrs;
    pk_adrs.setType(AddrType::ForsRoots);
    pk_adrs.setKeypair(fors_adrs.keypair());
    thash(pk_out, ctx, pk_adrs, ByteSpan(roots, p.forsTrees * n));
}

void
forsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                const uint8_t *const mhash[], const Context &ctx,
                const Address fors_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "forsPkFromSigXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned n = p.n;
    const unsigned k = p.forsTrees;
    const uint32_t t = p.forsLeaves();
    const size_t tree_sig = static_cast<size_t>(p.forsHeight + 1) * n;

    uint32_t indices[maxHashLanes][64];
    for (unsigned l = 0; l < count; ++l)
        messageToIndices(indices[l], p, mhash[l]);

    // Roots land contiguously per lane for the final compression.
    uint8_t roots[maxHashLanes][64 * maxN];

    // Walk the count * k (lane, tree) pairs in groups of the
    // dispatched lane width: the revealed leaf values hash one batch
    // per group, then the group's auth-path walks climb the shared
    // height a in lockstep.
    const unsigned width = hashLaneWidth();
    const unsigned pairs = count * k;
    uint8_t leaves[maxHashLanes][maxN];
    for (unsigned g = 0; g < pairs; g += width) {
        const unsigned m = std::min(width, pairs - g);
        Address adrs[maxHashLanes];
        uint8_t *louts[maxHashLanes];
        uint8_t *routs[maxHashLanes];
        const uint8_t *lins[maxHashLanes];
        const uint8_t *leafp[maxHashLanes];
        const uint8_t *auth[maxHashLanes];
        uint32_t leaf_idx[maxHashLanes];
        uint32_t idx_offset[maxHashLanes];

        for (unsigned j = 0; j < m; ++j) {
            const unsigned l = (g + j) / k;
            const unsigned i = (g + j) % k;
            const uint8_t *block = sig[l] + i * tree_sig;

            adrs[j] = fors_adrs[l];
            adrs[j].setType(AddrType::ForsTree);
            adrs[j].setKeypair(fors_adrs[l].keypair());
            adrs[j].setTreeHeight(0);
            adrs[j].setTreeIndex(indices[l][i] + i * t);
            louts[j] = leaves[j];
            lins[j] = block; // revealed secret value

            leafp[j] = leaves[j];
            leaf_idx[j] = indices[l][i];
            idx_offset[j] = i * t;
            auth[j] = block + n;
            routs[j] = roots[l] + static_cast<size_t>(i) * n;
        }
        thashFX(louts, ctx, adrs, lins, m);
        // The leaf addresses double as the walk scratch: computeRootXN
        // only touches the height/index words the leaf step set.
        computeRootXN(routs, ctx, leafp, leaf_idx, idx_offset, auth,
                      p.forsHeight, adrs, m);
    }

    // One batched k*n-byte root compression per lane.
    Address pk_adrs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        pk_adrs[l] = fors_adrs[l];
        pk_adrs[l].setType(AddrType::ForsRoots);
        pk_adrs[l].setKeypair(fors_adrs[l].keypair());
        ins[l] = roots[l];
    }
    thashX(pk_out, ctx, pk_adrs, ins, static_cast<size_t>(k) * n, count);
}

} // namespace herosign::sphincs
