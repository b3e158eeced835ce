#include "sphincs/wots.hh"

#include <algorithm>
#include <stdexcept>

#include "common/fault.hh"
#include "hash/sha256xN.hh"
#include "sphincs/thash.hh"
#include "sphincs/thashx.hh"

namespace herosign::sphincs
{

namespace
{

/**
 * Split @p in into consecutive lgW-bit digits, MSB first.
 */
void
baseW(uint32_t *out, size_t out_len, const uint8_t *in, unsigned lg_w)
{
    size_t in_idx = 0;
    unsigned bits = 0;
    uint8_t total = 0;
    for (size_t i = 0; i < out_len; ++i) {
        if (bits == 0) {
            total = in[in_idx++];
            bits = 8;
        }
        bits -= lg_w;
        out[i] = (total >> bits) & ((1u << lg_w) - 1);
    }
}

/** Upper bound on the chains of one advanceChains() call. */
constexpr unsigned maxBatchChains = maxHashLanes * maxWotsLen;

/** Positions 0, 1 and w-1 for every chain of a keypair. */
struct ChainBounds
{
    uint32_t zero[maxWotsLen] = {};
    uint32_t one[maxWotsLen];
    uint32_t top[maxWotsLen];

    explicit ChainBounds(const Params &p)
    {
        std::fill(one, one + maxWotsLen, 1u);
        std::fill(top, top + maxWotsLen, p.wotsW - 1);
    }
};

/**
 * Fill every chain value of @p set with sk_seed and turn it into the
 * chain's secret start value: PRF(pk_seed, sk_seed, adrs) is one F
 * step at hash index 0 under a WOTS_PRF address, so it runs through
 * the same chain dispatcher.
 */
void
seedChains(WotsChainSet &set, uint32_t layer, uint64_t tree,
           uint32_t keypair, const ChainBounds &bounds,
           const Context &ctx)
{
    const unsigned n = ctx.params().n;
    for (unsigned i = 0; i < ctx.params().wotsLen(); ++i)
        std::memcpy(set.vals + static_cast<size_t>(i) * n,
                    ctx.skSeed().data(), n);
    set.adrs = Address();
    set.adrs.setLayer(layer);
    set.adrs.setTree(tree);
    set.adrs.setType(AddrType::WotsPrf);
    set.adrs.setKeypair(keypair);
    set.start = bounds.zero;
    set.end = bounds.one;
    set.capOut = nullptr;
    set.capPos = nullptr;
}

/** Retarget @p set from its PRF address to the WOTS_HASH chains. */
void
toHashChains(WotsChainSet &set)
{
    const uint32_t keypair = set.adrs.keypair();
    set.adrs.setType(AddrType::WotsHash);
    set.adrs.setKeypair(keypair);
}

} // namespace

void
chainLengths(uint32_t *lengths, const Params &params, const uint8_t *msg)
{
    const unsigned lg_w = params.lgW();
    const unsigned len1 = params.wotsLen1();
    const unsigned len2 = params.wotsLen2();

    baseW(lengths, len1, msg, lg_w);

    // Checksum over the message digits.
    uint32_t csum = 0;
    for (unsigned i = 0; i < len1; ++i)
        csum += params.wotsW - 1 - lengths[i];

    // Left-shift so the checksum occupies whole base-w digits from the
    // most significant bit of its byte string.
    csum <<= (8 - (len2 * lg_w) % 8) % 8;
    uint8_t csum_bytes[8];
    const size_t csum_len = (len2 * lg_w + 7) / 8;
    toByte(csum_bytes, csum, csum_len);
    baseW(lengths + len1, len2, csum_bytes, lg_w);
}

void
genChain(uint8_t *out, const uint8_t *in, uint32_t start, uint32_t steps,
         const Context &ctx, Address &adrs)
{
    const unsigned n = ctx.params().n;
    if (out != in)
        std::memcpy(out, in, n);
    for (uint32_t i = start; i < start + steps; ++i) {
        adrs.setHash(i);
        thashF(out, ctx, adrs, out);
    }
}

void
wotsChainSk(uint8_t *out, const Context &ctx, Address &adrs,
            uint32_t chain)
{
    adrs.setChain(chain);
    adrs.setHash(0);
    prfAddr(out, ctx, adrs);
}

void
advanceChains(const WotsChainSet sets[], unsigned count,
              const Context &ctx)
{
    if (count > maxHashLanes)
        throw std::invalid_argument("advanceChains: count must be <= 16");
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;

    // Queue every live chain keyed by (start, end, id) so each call's
    // lanes start, and mostly retire, together. A dead chain
    // (start == end) only has its capture to serve.
    uint32_t keys[maxBatchChains];
    unsigned live = 0;
    uint32_t prefix[maxHashLanes][5];
    for (unsigned s = 0; s < count; ++s) {
        const WotsChainSet &cs = sets[s];
        Address base = cs.adrs;
        base.setChain(0);
        base.setHash(0);
        const auto adrs_c = base.compressed();
        for (unsigned w = 0; w < 5; ++w)
            prefix[s][w] = loadBe32(adrs_c.data() + 4 * w);
        for (unsigned i = 0; i < len; ++i) {
            if (cs.start[i] < cs.end[i])
                keys[live++] = cs.start[i] << 24 | cs.end[i] << 16 |
                               (s * len + i);
            else if (cs.capOut && cs.capPos[i] == cs.start[i])
                std::memcpy(cs.capOut + static_cast<size_t>(i) * n,
                            cs.vals + static_cast<size_t>(i) * n, n);
        }
    }
    std::sort(keys, keys + live);

    const LaneDispatch d = laneDispatch();
    const bool simd = chainKernelCovers(n);
    ChainLanes lanes{};
    for (unsigned g = 0; g < live;) {
        // Full calls of the dispatched width, a padded call for a
        // ragged tail of two or more chains, a lone chain scalar.
        const unsigned call =
            simd ? laneCallWidth(d.backend, live - g) : 0;
        const unsigned m = std::min(live - g, call ? call : d.width);
        uint64_t steps = 0;
        for (unsigned l = 0; l < std::max(call, m); ++l) {
            if (l >= m) {
                lanes.start[l] = lanes.end[l] = 0; // ghost lane
                continue;
            }
            const unsigned id = keys[g + l] & 0xffff;
            const unsigned i = id % len;
            const WotsChainSet &cs = sets[id / len];
            // Chain indices (< maxWotsLen) live in the chain field's
            // low halfword, the high half of address word 4.
            for (unsigned w = 0; w < 5; ++w)
                lanes.prefix[w][l] = prefix[id / len][w];
            lanes.prefix[4][l] |= i << 16;
            lanes.loadValue(l, cs.vals + static_cast<size_t>(i) * n, n);
            lanes.start[l] = cs.start[i];
            lanes.end[l] = cs.end[i];
            lanes.capPos[l] = cs.capOut ? cs.capPos[i] : UINT32_MAX;
            steps += cs.end[i] - cs.start[i];
        }
        sha256ChainF(call, n, m, ctx.seededState(), lanes);

        // Fault seam: a simd-lane rule corrupts the result of one real
        // lane of a SIMD chain call — never a ghost lane, never the
        // portable walk, so a forced-scalar (or quarantined) re-sign is
        // immune by construction.
        if (call && FaultInjector::fire(FaultPoint::SimdLane)) {
            FaultInjector &inj = FaultInjector::instance();
            const unsigned victim =
                inj.laneFor(inj.fired(FaultPoint::SimdLane), m);
            lanes.val[0][victim] ^= 1u << 24;
        }

        for (unsigned l = 0; l < m; ++l) {
            const unsigned id = keys[g + l] & 0xffff;
            const unsigned i = id % len;
            const WotsChainSet &cs = sets[id / len];
            lanes.storeValue(l, cs.vals + static_cast<size_t>(i) * n, n);
            if (cs.capOut && cs.capPos[i] >= cs.start[i] &&
                cs.capPos[i] <= cs.end[i])
                lanes.storeCapture(
                    l, cs.capOut + static_cast<size_t>(i) * n, n);
        }
        Sha256::addCompressions(steps);
        g += m;
    }
}

void
wotsLeafBatch(const Context &ctx, const WotsLeafReq reqs[],
              unsigned count)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;
    const ChainBounds bounds(p);

    // Leaf j's chains live at chains + j * len * n, contiguous for
    // its T_len compression.
    uint8_t chains[maxBatchChains * maxN];
    WotsChainSet sets[maxHashLanes];

    for (unsigned base = 0; base < count; base += maxHashLanes) {
        const unsigned m = std::min(maxHashLanes, count - base);
        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            sets[j].vals = chains + static_cast<size_t>(j) * len * n;
            seedChains(sets[j], r.layer, r.tree, r.keypair, bounds, ctx);
        }
        advanceChains(sets, m, ctx);

        // All m * len chains walk the full w-1 steps; signing leaves
        // capture their signature values in passing.
        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            toHashChains(sets[j]);
            sets[j].end = bounds.top;
            sets[j].capOut = r.sigOut;
            sets[j].capPos = r.lengths;
        }
        advanceChains(sets, m, ctx);

        // Compress each leaf's public key, batched across leaves.
        Address pk_adrs[maxHashLanes];
        uint8_t *pks[maxHashLanes];
        const uint8_t *ins[maxHashLanes];
        for (unsigned j = 0; j < m; ++j) {
            const WotsLeafReq &r = reqs[base + j];
            pk_adrs[j].setLayer(r.layer);
            pk_adrs[j].setTree(r.tree);
            pk_adrs[j].setType(AddrType::WotsPk);
            pk_adrs[j].setKeypair(r.keypair);
            pks[j] = r.leafOut;
            ins[j] = sets[j].vals;
        }
        thashX(pks, ctx, pk_adrs, ins, static_cast<size_t>(len) * n, m);
    }
}

void
wotsPkGen(uint8_t *pk_out, const Context &ctx, const Address &leaf_adrs)
{
    WotsLeafReq req;
    req.layer = leaf_adrs.layer();
    req.tree = leaf_adrs.tree();
    req.keypair = leaf_adrs.keypair();
    req.leafOut = pk_out;
    wotsLeafBatch(ctx, &req, 1);
}

void
wotsSign(uint8_t *sig, const uint8_t *msg, const Context &ctx,
         const Address &leaf_adrs)
{
    const Params &p = ctx.params();
    const ChainBounds bounds(p);
    uint32_t lengths[maxWotsLen];
    chainLengths(lengths, p, msg);

    WotsChainSet set;
    set.vals = sig;
    seedChains(set, leaf_adrs.layer(), leaf_adrs.tree(),
               leaf_adrs.keypair(), bounds, ctx);
    advanceChains(&set, 1, ctx);

    toHashChains(set);
    set.end = lengths;
    advanceChains(&set, 1, ctx);
}

void
wotsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                const uint8_t *const msg[], const Context &ctx,
                const Address leaf_adrs[], unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument(
            "wotsPkFromSigXN: count must be 1..16");
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;
    const ChainBounds bounds(p);

    // Lane l's chains live at chains + l * len * n, so its recomputed
    // chain heads stay contiguous for its T_len compression.
    uint8_t chains[maxBatchChains * maxN];
    uint32_t lengths[maxHashLanes][maxWotsLen];
    WotsChainSet sets[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        chainLengths(lengths[l], p, msg[l]);
        sets[l].vals = chains + static_cast<size_t>(l) * len * n;
        std::memcpy(sets[l].vals, sig[l], static_cast<size_t>(len) * n);
        sets[l].adrs = leaf_adrs[l];
        toHashChains(sets[l]);
        sets[l].start = lengths[l];
        sets[l].end = bounds.top;
    }
    advanceChains(sets, count, ctx);

    // One T_len public-key compression per lane, batched.
    Address pk_adrs[maxHashLanes];
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        pk_adrs[l] = leaf_adrs[l];
        pk_adrs[l].setType(AddrType::WotsPk);
        pk_adrs[l].setKeypair(leaf_adrs[l].keypair());
        ins[l] = sets[l].vals;
    }
    thashX(pk_out, ctx, pk_adrs, ins, static_cast<size_t>(len) * n,
           count);
}

void
wotsPkFromSig(uint8_t *pk_out, const uint8_t *sig, const uint8_t *msg,
              const Context &ctx, const Address &leaf_adrs)
{
    const Params &p = ctx.params();
    const unsigned len = p.wotsLen();
    const unsigned n = p.n;
    const ChainBounds bounds(p);
    uint32_t lengths[maxWotsLen];
    chainLengths(lengths, p, msg);

    uint8_t chains[maxWotsLen * maxN];
    std::memcpy(chains, sig, static_cast<size_t>(len) * n);
    WotsChainSet set;
    set.adrs = leaf_adrs;
    toHashChains(set);
    set.vals = chains;
    set.start = lengths;
    set.end = bounds.top;
    advanceChains(&set, 1, ctx);

    Address pk_adrs = leaf_adrs;
    pk_adrs.setType(AddrType::WotsPk);
    pk_adrs.setKeypair(leaf_adrs.keypair());
    thash(pk_out, ctx, pk_adrs, ByteSpan(chains, len * n));
}

} // namespace herosign::sphincs
