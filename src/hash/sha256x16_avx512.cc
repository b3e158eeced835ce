/**
 * @file
 * AVX-512 backend of the lane-parallel SHA-256 engine: 16 lanes per
 * compression. This translation unit is the only one compiled with
 * -mavx512f (see src/hash/CMakeLists.txt), so the rest of the library
 * keeps the baseline ISA and dispatch can always fall back to the
 * AVX2 or portable paths.
 *
 * Layout: fully transposed. Each SHA-256 state word a..h is one
 * `__m512i` whose 32-bit element l belongs to lane l; the 64-entry
 * message schedule is likewise one `__m512i` per round, so schedule
 * expansion and the round function run once for all sixteen lanes.
 * Per-lane 64-byte blocks move into word-per-register layout through
 * four 8x8 32-bit transposes of 256-bit halves stitched together with
 * `_mm512_inserti64x4` (cheaper and simpler than a monolithic 16x16
 * network, and it reuses the proven AVX2 transpose shape). AVX-512F's
 * native rotates (`_mm512_ror_epi32`) and three-input bit logic
 * (`_mm512_ternarylogic_epi32` for Ch/Maj/xor3) shorten the round
 * function relative to the AVX2 kernel.
 *
 * Two entry points mirror the AVX2 backend:
 *  * sha256Compress16Avx512 — generic transposed compression for the
 *    incremental Sha256Lanes engine.
 *  * sha256Final16SeededAvx512 — the fused SPHINCS+ fast path: all
 *    lanes resume from ONE shared mid-state (a broadcast, no state
 *    transpose) and absorb exactly one pre-padded block, the shape of
 *    every batched F/PRF call.
 */

#ifdef HEROSIGN_HAVE_AVX512

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

// GCC implements the AVX-512 cast/extract intrinsics on top of
// _mm256_undefined_si256(), which GCC 12 flags as used-uninitialized
// under -Werror (PR105593). The uninitialized upper half is by design
// — it is immediately overwritten — so silence the false positive for
// this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "hash/sha256_tables.hh"
#include "hash/sha256xN.hh"

namespace herosign
{

namespace
{

using sha256tables::K;

/** x ^ y ^ z in one ternary-logic op (truth table 0x96). */
inline __m512i
xor3(__m512i x, __m512i y, __m512i z)
{
    return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

inline __m512i
sigma0(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 7), _mm512_ror_epi32(x, 18),
                _mm512_srli_epi32(x, 3));
}

inline __m512i
sigma1(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 17), _mm512_ror_epi32(x, 19),
                _mm512_srli_epi32(x, 10));
}

inline __m512i
bigSigma0(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 2), _mm512_ror_epi32(x, 13),
                _mm512_ror_epi32(x, 22));
}

inline __m512i
bigSigma1(__m512i x)
{
    return xor3(_mm512_ror_epi32(x, 6), _mm512_ror_epi32(x, 11),
                _mm512_ror_epi32(x, 25));
}

/** (e & f) ^ (~e & g): truth table 0xCA. */
inline __m512i
ch(__m512i e, __m512i f, __m512i g)
{
    return _mm512_ternarylogic_epi32(e, f, g, 0xCA);
}

/** Majority of three: truth table 0xE8. */
inline __m512i
maj(__m512i a, __m512i b, __m512i c)
{
    return _mm512_ternarylogic_epi32(a, b, c, 0xE8);
}

/** Byte-swap each 32-bit element of a 256-bit half (AVX2, available
 * under -mavx512f's implied ISA set). */
inline __m256i
bswap32Half(__m256i x)
{
    const __m256i mask = _mm256_set_epi8(
        12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3, 12, 13,
        14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
    return _mm256_shuffle_epi8(x, mask);
}

/**
 * In-place 8x8 32-bit transpose of 256-bit rows — the same
 * self-inverse network the AVX2 backend uses.
 */
inline void
transpose8x8Half(__m256i r[8])
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
 * Load 8 consecutive 32-bit words from lanes [lane0, lane0+8) at byte
 * offset @p off, byteswapped to big-endian and transposed so half[i]
 * holds word (off/4 + i) of those eight lanes.
 */
inline void
loadTransposedHalf(__m256i half[8], const uint8_t *const blocks[16],
                   unsigned lane0, size_t off)
{
    for (int l = 0; l < 8; ++l) {
        half[l] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
            blocks[lane0 + l] + off));
        half[l] = bswap32Half(half[l]);
    }
    transpose8x8Half(half);
}

/**
 * Fill w[0..15] with the transposed message block of all 16 lanes:
 * w[i] element l = big-endian word i of lane l's 64-byte block.
 */
inline void
loadMessage16(__m512i w[16], const uint8_t *const blocks[16])
{
    // Quadrants: (lane half, word half) -> four 8x8 transposes.
    __m256i q[4][8];
    loadTransposedHalf(q[0], blocks, 0, 0);  // lanes 0-7,  words 0-7
    loadTransposedHalf(q[1], blocks, 8, 0);  // lanes 8-15, words 0-7
    loadTransposedHalf(q[2], blocks, 0, 32); // lanes 0-7,  words 8-15
    loadTransposedHalf(q[3], blocks, 8, 32); // lanes 8-15, words 8-15
    for (int i = 0; i < 8; ++i) {
        w[i] = _mm512_inserti64x4(_mm512_castsi256_si512(q[0][i]),
                                  q[1][i], 1);
        w[8 + i] = _mm512_inserti64x4(_mm512_castsi256_si512(q[2][i]),
                                      q[3][i], 1);
    }
}

/** Message schedule words [from, 64) from their predecessors. */
inline void
expand16(__m512i w[64], int from = 16)
{
    for (int i = from; i < 64; ++i) {
        w[i] = _mm512_add_epi32(
            _mm512_add_epi32(w[i - 16], sigma0(w[i - 15])),
            _mm512_add_epi32(w[i - 7], sigma1(w[i - 2])));
    }
}

/** Rounds [from, to) on the working variables v = a..h, in place. */
inline void
roundRange(__m512i v[8], const __m512i w[64], int from, int to)
{
    __m512i a = v[0], b = v[1], c = v[2], d = v[3];
    __m512i e = v[4], f = v[5], g = v[6], h = v[7];

    for (int i = from; i < to; ++i) {
        __m512i t1 = _mm512_add_epi32(
            _mm512_add_epi32(
                _mm512_add_epi32(h, bigSigma1(e)),
                _mm512_add_epi32(
                    ch(e, f, g),
                    _mm512_set1_epi32(static_cast<int>(K[i])))),
            w[i]);
        __m512i t2 = _mm512_add_epi32(bigSigma0(a), maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = _mm512_add_epi32(d, t1);
        d = c;
        c = b;
        b = a;
        a = _mm512_add_epi32(t1, t2);
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
rounds16(__m512i s[8], __m512i w[64])
{
    expand16(w);
    __m512i v[8];
    for (int i = 0; i < 8; ++i)
        v[i] = s[i];
    roundRange(v, w, 0, 64);
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_add_epi32(s[i], v[i]);
}

/**
 * Per-lane states (16 rows of 8 words) -> word-per-register: s[i]
 * element l = state[l][i]. Two 8x8 half transposes per half of the
 * lanes, stitched with inserti64x4.
 */
inline void
loadStates16(__m512i s[8], const std::array<uint32_t, 8> state[16])
{
    __m256i lo[8], hi[8];
    for (int l = 0; l < 8; ++l) {
        lo[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(state[l].data()));
        hi[l] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(state[8 + l].data()));
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_inserti64x4(_mm512_castsi256_si512(lo[i]), hi[i],
                                  1);
}

/** Inverse of loadStates16. */
inline void
storeStates16(std::array<uint32_t, 8> state[16], const __m512i s[8])
{
    __m256i lo[8], hi[8];
    for (int i = 0; i < 8; ++i) {
        lo[i] = _mm512_castsi512_si256(s[i]);
        hi[i] = _mm512_extracti64x4_epi64(s[i], 1);
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(state[l].data()), lo[l]);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(state[8 + l].data()), hi[l]);
    }
}

} // namespace

void
sha256Compress16Avx512(std::array<uint32_t, 8> state[16],
                       const uint8_t *const blocks[16])
{
    __m512i w[64];
    loadMessage16(w, blocks);

    __m512i s[8];
    loadStates16(s, state);

    rounds16(s, w);

    storeStates16(state, s);
}

void
sha256Final16SeededAvx512(const std::array<uint32_t, 8> &mid,
                          const uint8_t *const blocks[16],
                          uint8_t *const digests[16])
{
    __m512i w[64];
    loadMessage16(w, blocks);

    // All lanes resume from the same chaining state: a broadcast per
    // word, no transpose.
    __m512i s[8];
    for (int i = 0; i < 8; ++i)
        s[i] = _mm512_set1_epi32(static_cast<int>(mid[i]));

    rounds16(s, w);

    // word-per-register -> lane-per-register, then big-endian bytes.
    __m256i lo[8], hi[8];
    for (int i = 0; i < 8; ++i) {
        lo[i] = _mm512_castsi512_si256(s[i]);
        hi[i] = _mm512_extracti64x4_epi64(s[i], 1);
    }
    transpose8x8Half(lo);
    transpose8x8Half(hi);
    for (int l = 0; l < 8; ++l) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(digests[l]),
                            bswap32Half(lo[l]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(digests[8 + l]),
            bswap32Half(hi[l]));
    }
}

template <unsigned NW>
void
sha256ChainF16SeededAvx512(const Sha256State &mid, ChainLanes &lanes)
{
    static_assert(NW == 4 || NW == 6 || NW == 8, "n must be 16/24/32");

    // Captures go straight to memory by masked store, so they hold no
    // registers across the step loop.
    __m512i v[NW];
    for (unsigned k = 0; k < NW; ++k) {
        v[k] = _mm512_loadu_si512(lanes.val[k]);
        _mm512_storeu_si512(lanes.cap[k], v[k]);
    }

    // The loop runs over absolute positions, so the hash index is the
    // same in every lane and lanes outside their range sit out by
    // mask.
    uint32_t first = UINT32_MAX, last = 0;
    for (unsigned l = 0; l < 16; ++l) {
        if (lanes.start[l] < lanes.end[l]) {
            first = std::min(first, lanes.start[l]);
            last = std::max(last, lanes.end[l]);
        }
    }

    __m512i s0[8];
    for (int i = 0; i < 8; ++i)
        s0[i] = _mm512_set1_epi32(static_cast<int>(mid.h[i]));

    // Words 0-4 (the address prefix) are fixed for the call: run
    // rounds 0-4 and the constant half of w[16..19] once.
    __m512i w[64];
    for (int i = 0; i < 5; ++i)
        w[i] = _mm512_loadu_si512(lanes.prefix[i]);
    __m512i head[8];
    for (int i = 0; i < 8; ++i)
        head[i] = s0[i];
    __m512i sched_head[4];
    for (int i = 0; i < 4; ++i)
        sched_head[i] = _mm512_add_epi32(w[i], sigma0(w[i + 1]));
    roundRange(head, w, 0, 5);

    const __m512i start = _mm512_loadu_si512(lanes.start);
    const __m512i end = _mm512_loadu_si512(lanes.end);
    const __m512i cap_pos = _mm512_loadu_si512(lanes.capPos);
    const __m512i pad = _mm512_set1_epi32(0x8000);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i bit_len = _mm512_set1_epi32(
        static_cast<int>((mid.bytesCompressed + 22 + 4 * NW) * 8));

    for (uint32_t p = first; p < last; ++p) {
        w[5] = _mm512_or_si512(
            _mm512_set1_epi32(static_cast<int>(p << 16)),
            _mm512_srli_epi32(v[0], 16));
        for (unsigned k = 1; k < NW; ++k)
            w[5 + k] = _mm512_or_si512(_mm512_slli_epi32(v[k - 1], 16),
                                       _mm512_srli_epi32(v[k], 16));
        w[5 + NW] =
            _mm512_or_si512(_mm512_slli_epi32(v[NW - 1], 16), pad);
        for (unsigned i = 6 + NW; i < 15; ++i)
            w[i] = zero;
        w[15] = bit_len;

        for (int i = 16; i < 20; ++i)
            w[i] = _mm512_add_epi32(
                sched_head[i - 16],
                _mm512_add_epi32(w[i - 7], sigma1(w[i - 2])));
        expand16(w, 20);

        __m512i x[8];
        for (int i = 0; i < 8; ++i)
            x[i] = head[i];
        roundRange(x, w, 5, 64);

        const __m512i pv = _mm512_set1_epi32(static_cast<int>(p));
        const __mmask16 live = _mm512_cmple_epu32_mask(start, pv) &
                               _mm512_cmplt_epu32_mask(pv, end);
        const __mmask16 grab =
            live & _mm512_cmpeq_epi32_mask(
                       cap_pos, _mm512_set1_epi32(static_cast<int>(p + 1)));
        for (unsigned k = 0; k < NW; ++k) {
            const __m512i dk = _mm512_add_epi32(s0[k], x[k]);
            v[k] = _mm512_mask_mov_epi32(v[k], live, dk);
            _mm512_mask_storeu_epi32(lanes.cap[k], grab, dk);
        }
    }

    for (unsigned k = 0; k < NW; ++k)
        _mm512_storeu_si512(lanes.val[k], v[k]);
}

template void sha256ChainF16SeededAvx512<4>(const Sha256State &,
                                            ChainLanes &);
template void sha256ChainF16SeededAvx512<6>(const Sha256State &,
                                            ChainLanes &);
template void sha256ChainF16SeededAvx512<8>(const Sha256State &,
                                            ChainLanes &);

} // namespace herosign

#endif // HEROSIGN_HAVE_AVX512
