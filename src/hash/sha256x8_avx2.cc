/**
 * @file
 * AVX2 backend of the lane-parallel SHA-256 engine: 8 lanes per
 * compression. This translation unit is the only one compiled with
 * -mavx2 (see src/hash/CMakeLists.txt), so the rest of the library
 * keeps the baseline ISA and the portable fallback stays usable on
 * any x86-64. Backend selection happens in laneDispatch()
 * (sha256xN.cc); the 16-lane AVX-512 sibling lives in
 * sha256x16_avx512.cc.
 *
 * Layout: fully transposed. Each SHA-256 state word a..h is one
 * __m256i whose 32-bit element l belongs to lane l; the 64-entry
 * message schedule is likewise one __m256i per round, so schedule
 * expansion and the round function run once for all eight lanes.
 * Blocks and states move between per-lane and transposed layout with
 * an 8x8 32-bit unpack/permute transpose; a byte shuffle performs the
 * big-endian conversion.
 *
 * Two entry points:
 *  * sha256Compress8Avx2 — generic transposed compression for the
 *    incremental Sha256Lanes engine.
 *  * sha256Final8SeededAvx2 — the fused SPHINCS+ fast path: all lanes
 *    resume from ONE shared mid-state (a broadcast, no state
 *    transpose) and absorb exactly one pre-padded block, which is the
 *    shape of every batched F/PRF call.
 */

#ifdef HEROSIGN_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "hash/sha256_tables.hh"
#include "hash/sha256xN.hh"

namespace herosign
{

namespace
{

using sha256tables::K;

inline __m256i
rotr(__m256i x, int n)
{
    return _mm256_or_si256(_mm256_srli_epi32(x, n),
                           _mm256_slli_epi32(x, 32 - n));
}

inline __m256i
sigma0(__m256i x)
{
    return _mm256_xor_si256(_mm256_xor_si256(rotr(x, 7), rotr(x, 18)),
                            _mm256_srli_epi32(x, 3));
}

inline __m256i
sigma1(__m256i x)
{
    return _mm256_xor_si256(_mm256_xor_si256(rotr(x, 17), rotr(x, 19)),
                            _mm256_srli_epi32(x, 10));
}

inline __m256i
bigSigma0(__m256i x)
{
    return _mm256_xor_si256(_mm256_xor_si256(rotr(x, 2), rotr(x, 13)),
                            rotr(x, 22));
}

inline __m256i
bigSigma1(__m256i x)
{
    return _mm256_xor_si256(_mm256_xor_si256(rotr(x, 6), rotr(x, 11)),
                            rotr(x, 25));
}

inline __m256i
ch(__m256i e, __m256i f, __m256i g)
{
    // (e & f) ^ (~e & g)
    return _mm256_xor_si256(_mm256_and_si256(e, f),
                            _mm256_andnot_si256(e, g));
}

inline __m256i
maj(__m256i a, __m256i b, __m256i c)
{
    return _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
}

/** Byte-swap each 32-bit element. */
inline __m256i
bswap32(__m256i x)
{
    const __m256i mask = _mm256_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13,
        14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
    return _mm256_shuffle_epi8(x, mask);
}

/**
 * In-place 8x8 32-bit transpose: r[i] element j  <->  r[j] element i.
 * Converts between "register per lane" and "register per word"
 * layouts (the network is its own inverse).
 */
inline void
transpose8x8(__m256i r[8])
{
    __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
    __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
    __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
    __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
    __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
    __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
    __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
    __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);

    __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
    __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    __m256i u7 = _mm256_unpackhi_epi64(t5, t7);

    r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/**
 * Load 8 consecutive 32-bit words from each lane's block at byte
 * offset @p off, byteswap to big-endian order and transpose so w[i]
 * holds word i of all lanes.
 */
inline void
loadTransposed8(__m256i w[8], const uint8_t *const blocks[8], size_t off)
{
    for (int l = 0; l < 8; ++l) {
        w[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(blocks[l] + off));
        w[l] = bswap32(w[l]);
    }
    transpose8x8(w);
}

/** Message schedule words [from, 64) from their predecessors. */
inline void
expand8(__m256i w[64], int from = 16)
{
    for (int i = from; i < 64; ++i) {
        w[i] = _mm256_add_epi32(
            _mm256_add_epi32(w[i - 16], sigma0(w[i - 15])),
            _mm256_add_epi32(w[i - 7], sigma1(w[i - 2])));
    }
}

/** Rounds [from, to) on the working variables v = a..h, in place. */
inline void
roundRange(__m256i v[8], const __m256i w[64], int from, int to)
{
    __m256i a = v[0], b = v[1], c = v[2], d = v[3];
    __m256i e = v[4], f = v[5], g = v[6], h = v[7];

    for (int i = from; i < to; ++i) {
        __m256i t1 = _mm256_add_epi32(
            _mm256_add_epi32(
                _mm256_add_epi32(h, bigSigma1(e)),
                _mm256_add_epi32(
                    ch(e, f, g),
                    _mm256_set1_epi32(static_cast<int>(K[i])))),
            w[i]);
        __m256i t2 = _mm256_add_epi32(bigSigma0(a), maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = _mm256_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm256_add_epi32(t1, t2);
    }

    v[0] = a;
    v[1] = b;
    v[2] = c;
    v[3] = d;
    v[4] = e;
    v[5] = f;
    v[6] = g;
    v[7] = h;
}

/** Expand the schedule and run the 64 rounds; s is updated in place. */
inline void
rounds8(__m256i s[8], __m256i w[64])
{
    expand8(w);
    __m256i v[8];
    for (int i = 0; i < 8; ++i)
        v[i] = s[i];
    roundRange(v, w, 0, 64);
    for (int i = 0; i < 8; ++i)
        s[i] = _mm256_add_epi32(s[i], v[i]);
}

inline __m256i
load8(const uint32_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store8(uint32_t *p, __m256i x)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
}

} // namespace

void
sha256Compress8Avx2(std::array<uint32_t, 8> state[8],
                    const uint8_t *const blocks[8])
{
    __m256i w[64];
    loadTransposed8(w, blocks, 0);
    loadTransposed8(w + 8, blocks, 32);

    // Per-lane states -> one register per state word.
    __m256i s[8];
    for (int l = 0; l < 8; ++l) {
        s[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(state[l].data()));
    }
    transpose8x8(s);

    rounds8(s, w);

    transpose8x8(s);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(state[l].data()),
                            s[l]);
    }
}

void
sha256Final8SeededAvx2(const std::array<uint32_t, 8> &mid,
                       const uint8_t *const blocks[8],
                       uint8_t *const digests[8])
{
    __m256i w[64];
    loadTransposed8(w, blocks, 0);
    loadTransposed8(w + 8, blocks, 32);

    // All lanes resume from the same chaining state: a broadcast per
    // word, no transpose.
    __m256i s[8];
    for (int i = 0; i < 8; ++i)
        s[i] = _mm256_set1_epi32(static_cast<int>(mid[i]));

    rounds8(s, w);

    // word-per-register -> lane-per-register, then big-endian bytes.
    transpose8x8(s);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(digests[l]),
                            bswap32(s[l]));
    }
}

template <unsigned NW>
void
sha256ChainF8SeededAvx2(const Sha256State &mid, ChainLanes &lanes)
{
    static_assert(NW == 4 || NW == 6 || NW == 8, "n must be 16/24/32");

    // Captures go straight to memory by masked store, so they hold no
    // registers across the step loop.
    __m256i v[NW];
    for (unsigned k = 0; k < NW; ++k) {
        v[k] = load8(lanes.val[k]);
        store8(lanes.cap[k], v[k]);
    }

    // Same shape as the AVX-512 kernel: one uniform position loop,
    // lanes outside their range held by mask.
    uint32_t first = UINT32_MAX, last = 0;
    for (unsigned l = 0; l < 8; ++l) {
        if (lanes.start[l] < lanes.end[l]) {
            first = std::min(first, lanes.start[l]);
            last = std::max(last, lanes.end[l]);
        }
    }

    __m256i s0[8];
    for (int i = 0; i < 8; ++i)
        s0[i] = _mm256_set1_epi32(static_cast<int>(mid.h[i]));

    // Rounds 0-4 and the constant half of w[16..19] depend only on
    // the address prefix: once per call.
    __m256i w[64];
    for (int i = 0; i < 5; ++i)
        w[i] = load8(lanes.prefix[i]);
    __m256i head[8];
    for (int i = 0; i < 8; ++i)
        head[i] = s0[i];
    __m256i sched_head[4];
    for (int i = 0; i < 4; ++i)
        sched_head[i] = _mm256_add_epi32(w[i], sigma0(w[i + 1]));
    roundRange(head, w, 0, 5);

    // Positions stay far below 2^31, so signed compares are exact.
    const __m256i start = load8(lanes.start);
    const __m256i end = load8(lanes.end);
    const __m256i cap_pos = load8(lanes.capPos);
    const __m256i pad = _mm256_set1_epi32(0x8000);
    const __m256i zero = _mm256_setzero_si256();
    const __m256i bit_len = _mm256_set1_epi32(
        static_cast<int>((mid.bytesCompressed + 22 + 4 * NW) * 8));

    for (uint32_t p = first; p < last; ++p) {
        w[5] = _mm256_or_si256(
            _mm256_set1_epi32(static_cast<int>(p << 16)),
            _mm256_srli_epi32(v[0], 16));
        for (unsigned k = 1; k < NW; ++k)
            w[5 + k] = _mm256_or_si256(_mm256_slli_epi32(v[k - 1], 16),
                                       _mm256_srli_epi32(v[k], 16));
        w[5 + NW] =
            _mm256_or_si256(_mm256_slli_epi32(v[NW - 1], 16), pad);
        for (unsigned i = 6 + NW; i < 15; ++i)
            w[i] = zero;
        w[15] = bit_len;

        for (int i = 16; i < 20; ++i)
            w[i] = _mm256_add_epi32(
                sched_head[i - 16],
                _mm256_add_epi32(w[i - 7], sigma1(w[i - 2])));
        expand8(w, 20);

        __m256i x[8];
        for (int i = 0; i < 8; ++i)
            x[i] = head[i];
        roundRange(x, w, 5, 64);

        const __m256i pv = _mm256_set1_epi32(static_cast<int>(p));
        const __m256i live =
            _mm256_andnot_si256(_mm256_cmpgt_epi32(start, pv),
                                _mm256_cmpgt_epi32(end, pv));
        const __m256i grab = _mm256_and_si256(
            live,
            _mm256_cmpeq_epi32(
                cap_pos, _mm256_set1_epi32(static_cast<int>(p + 1))));
        for (unsigned k = 0; k < NW; ++k) {
            const __m256i dk = _mm256_add_epi32(s0[k], x[k]);
            v[k] = _mm256_blendv_epi8(v[k], dk, live);
            _mm256_maskstore_epi32(reinterpret_cast<int *>(lanes.cap[k]),
                                   grab, dk);
        }
    }

    for (unsigned k = 0; k < NW; ++k)
        store8(lanes.val[k], v[k]);
}

template void sha256ChainF8SeededAvx2<4>(const Sha256State &,
                                         ChainLanes &);
template void sha256ChainF8SeededAvx2<6>(const Sha256State &,
                                         ChainLanes &);
template void sha256ChainF8SeededAvx2<8>(const Sha256State &,
                                         ChainLanes &);

} // namespace herosign

#endif // HEROSIGN_HAVE_AVX2
