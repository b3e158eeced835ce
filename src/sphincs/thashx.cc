#include "sphincs/thashx.hh"

#include <algorithm>
#include <stdexcept>

#include "common/fault.hh"

namespace herosign::sphincs
{

namespace
{

/**
 * Largest data length that still fits one padded SHA-256 block
 * (64 - 1 pad byte - 8 length bytes).
 */
constexpr size_t oneBlockMax = Sha256::blockSize - 9;

/**
 * Fused single-block batch: every hot batched call outside the WOTS+
 * chains (FORS PRFs and leaves) hashes adrs_c || input of
 * 22 + n <= 54 bytes on top of the per-keypair mid-state — exactly
 * one padded compression per lane. Building the padded blocks
 * directly and running the widest compressions available skips the
 * incremental engine entirely; the SIMD kernels additionally
 * broadcast the shared mid-state instead of transposing per-lane
 * copies of it. The batch is consumed in SIMD
 * calls while two or more real lanes remain (laneCallWidth); a lone
 * last lane runs scalar. Digests and compression counts are
 * identical for every split.
 */
void
thashXOneBlock(uint8_t *const out[], const Context &ctx,
               const Address adrs[], const uint8_t *const in[],
               size_t in_len, unsigned count)
{
    const unsigned n = ctx.params().n;
    const Sha256State &mid = ctx.seededState();
    const size_t data_len = Address::compressedSize + in_len;
    const uint64_t bit_len = (mid.bytesCompressed + data_len) * 8;

    // Cache-line aligned: each lane block is loaded as whole vectors
    // by the SIMD kernels, so keep every 64-byte block on one line.
    alignas(64) uint8_t blocks[maxHashLanes][Sha256::blockSize];
    const uint8_t *bptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        const auto adrs_c = adrs[l].compressed();
        std::memcpy(blocks[l], adrs_c.data(), Address::compressedSize);
        std::memcpy(blocks[l] + Address::compressedSize, in[l], in_len);
        blocks[l][data_len] = 0x80;
        std::memset(blocks[l] + data_len + 1, 0,
                    Sha256::blockSize - 9 - data_len);
        storeBe64(blocks[l] + Sha256::blockSize - 8, bit_len);
        bptrs[l] = blocks[l];
    }

    const LaneBackend tier = laneDispatch().backend;
    // Ghost lanes of a padded call hash lane 0's block into the
    // digest rows past count, which nothing reads back.
    for (unsigned l = count; l < maxHashLanes; ++l)
        bptrs[l] = bptrs[0];
    uint8_t digests[maxHashLanes][Sha256::digestSize];
    uint8_t *dptrs[maxHashLanes];
    for (unsigned l = 0; l < maxHashLanes; ++l)
        dptrs[l] = digests[l];

    unsigned l = 0;
    while (const unsigned w = laneCallWidth(tier, count - l)) {
        if (w == 16)
            sha256Final16SeededAvx512(mid.h, bptrs + l, dptrs + l);
        else
            sha256Final8SeededAvx2(mid.h, bptrs + l, dptrs + l);
        l = std::min(count, l + w);
    }
    // Fault seam: a simd-lane rule corrupts one real digest produced
    // by the SIMD kernels above — never a ghost lane and never a
    // scalar lane, so a forced-scalar (or quarantined) path is immune
    // by construction and the verify-after-sign guard's re-sign
    // converges.
    if (l > 0 && FaultInjector::fire(FaultPoint::SimdLane)) {
        FaultInjector &inj = FaultInjector::instance();
        const unsigned victim =
            inj.laneFor(inj.fired(FaultPoint::SimdLane), l);
        digests[victim][0] ^= 1u;
    }
    for (; l < count; ++l) {
        std::array<uint32_t, 8> h = mid.h;
        sha256CompressNative(h, blocks[l]);
        for (int i = 0; i < 8; ++i)
            storeBe32(digests[l] + 4 * i, h[i]);
    }
    for (unsigned j = 0; j < count; ++j)
        std::memcpy(out[j], digests[j], n);
    Sha256::addCompressions(count);
}

} // namespace

void
thashX(uint8_t *const out[], const Context &ctx, const Address adrs[],
       const uint8_t *const in[], size_t in_len, unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("thashX: count must be 1..16");
    const unsigned n = ctx.params().n;

    if (Address::compressedSize + in_len <= oneBlockMax) {
        thashXOneBlock(out, ctx, adrs, in, in_len, count);
        return;
    }

    // Long inputs (e.g. the T_len public-key compression of a whole
    // leaf's chains): the incremental lane engine at exactly the
    // batch's width — it picks the widest kernels internally.
    Sha256Lanes hasher(count, ctx.seededState());

    std::array<uint8_t, Address::compressedSize> adrs_c[maxHashLanes];
    const uint8_t *ptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l) {
        adrs_c[l] = adrs[l].compressed();
        ptrs[l] = adrs_c[l].data();
    }
    hasher.update(ptrs, Address::compressedSize);
    hasher.update(in, in_len);

    uint8_t digests[maxHashLanes][Sha256::digestSize];
    uint8_t *dptrs[maxHashLanes];
    for (unsigned l = 0; l < count; ++l)
        dptrs[l] = digests[l];
    hasher.final(dptrs);
    for (unsigned l = 0; l < count; ++l)
        std::memcpy(out[l], digests[l], n);
}

void
prfAddrX(uint8_t *const out[], const Context &ctx, const Address adrs[],
         unsigned count)
{
    if (count == 0 || count > maxHashLanes)
        throw std::invalid_argument("prfAddrX: count must be 1..16");
    const uint8_t *ins[maxHashLanes];
    for (unsigned l = 0; l < count; ++l)
        ins[l] = ctx.skSeed().data();
    thashX(out, ctx, adrs, ins, ctx.params().n, count);
}

} // namespace herosign::sphincs
