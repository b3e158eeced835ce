/**
 * @file
 * AVX-512 backend of the lane-parallel SHA-256 engine: 16 lanes per
 * compression. The algorithm lives once in sha256_lanes_simd.hh; this
 * translation unit supplies its 16-lane register traits and
 * instantiates the entry points with them. It is the only TU compiled
 * with -mavx512f (see src/hash/CMakeLists.txt), so the rest of the
 * library keeps the baseline ISA and dispatch can always fall back to
 * the AVX2 or portable paths.
 *
 * The traits keep what AVX-512F does better than the AVX2 tier: native
 * rotates (`_mm512_ror_epi32`), three-input bit logic
 * (`_mm512_ternarylogic_epi32` for Ch/Maj/xor3) and `__mmask16` lane
 * masks for the chain kernel's blend and capture store. Per-lane rows
 * move through the shared 8x8 transposes of 256-bit halves, stitched
 * with `_mm512_inserti64x4` (cheaper and simpler than a monolithic
 * 16x16 network).
 */

#ifdef HEROSIGN_HAVE_AVX512

// GCC implements the AVX-512 cast/extract intrinsics on top of
// _mm256_undefined_si256(), which GCC 12 flags as used-uninitialized
// under -Werror (PR105593). The uninitialized upper half is by design
// — it is immediately overwritten — so silence the false positive for
// this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "hash/sha256_lanes_simd.hh"

namespace herosign
{

namespace
{

struct Avx512
{
    using V = __m512i;
    using Mask = __mmask16;
    static constexpr unsigned width = 16;

    static V add(V a, V b) { return _mm512_add_epi32(a, b); }
    static V bitOr(V a, V b) { return _mm512_or_si512(a, b); }
    template <int N>
    static V shl(V x) { return _mm512_slli_epi32(x, N); }
    template <int N>
    static V shr(V x) { return _mm512_srli_epi32(x, N); }
    template <int N>
    static V ror(V x) { return _mm512_ror_epi32(x, N); }

    /** x ^ y ^ z: truth table 0x96. */
    static V
    xor3(V x, V y, V z)
    {
        return _mm512_ternarylogic_epi32(x, y, z, 0x96);
    }

    /** (e & f) ^ (~e & g): truth table 0xCA. */
    static V
    ch(V e, V f, V g)
    {
        return _mm512_ternarylogic_epi32(e, f, g, 0xCA);
    }

    /** Majority of three: truth table 0xE8. */
    static V
    maj(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi32(a, b, c, 0xE8);
    }

    static V
    set1(uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }

    static V load(const uint32_t *p) { return _mm512_loadu_si512(p); }
    static void store(uint32_t *p, V x) { _mm512_storeu_si512(p, x); }

    static __m256i
    half(V x, unsigned g)
    {
        return g ? _mm512_extracti64x4_epi64(x, 1)
                 : _mm512_castsi512_si256(x);
    }

    static V
    join(const __m256i *r)
    {
        return _mm512_inserti64x4(_mm512_castsi256_si512(r[0]), r[8],
                                  1);
    }

    static Mask
    inRange(V lo, V hi, V p)
    {
        return _mm512_cmple_epu32_mask(lo, p) &
               _mm512_cmplt_epu32_mask(p, hi);
    }

    static Mask
    andEq(Mask m, V a, V b)
    {
        return m & _mm512_cmpeq_epi32_mask(a, b);
    }

    static V
    blend(V old, V x, Mask m)
    {
        return _mm512_mask_mov_epi32(old, m, x);
    }

    static void
    maskStore(uint32_t *p, Mask m, V x)
    {
        _mm512_mask_storeu_epi32(p, m, x);
    }
};

} // namespace

void
sha256Compress16Avx512(std::array<uint32_t, 8> state[16],
                       const uint8_t *const blocks[16])
{
    compress<Avx512>(state, blocks);
}

void
sha256Final16SeededAvx512(const std::array<uint32_t, 8> &mid,
                          const uint8_t *const blocks[16],
                          uint8_t *const digests[16])
{
    finalSeeded<Avx512>(mid, blocks, digests);
}

template <unsigned NW>
void
sha256ChainF16SeededAvx512(const Sha256State &mid, ChainLanes &lanes)
{
    chainF<Avx512, NW>(mid, lanes);
}

template void sha256ChainF16SeededAvx512<4>(const Sha256State &,
                                            ChainLanes &);
template void sha256ChainF16SeededAvx512<6>(const Sha256State &,
                                            ChainLanes &);
template void sha256ChainF16SeededAvx512<8>(const Sha256State &,
                                            ChainLanes &);

} // namespace herosign

#endif // HEROSIGN_HAVE_AVX512
