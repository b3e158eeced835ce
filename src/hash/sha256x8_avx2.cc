/**
 * @file
 * AVX2 backend of the lane-parallel SHA-256 engine: 8 lanes per
 * compression. The algorithm lives once in sha256_lanes_simd.hh; this
 * translation unit supplies its 8-lane register traits (one __m256i
 * per state or schedule word, rotates as shift pairs, a __m256i lane
 * mask with blendv/maskstore) and instantiates the entry points with
 * them. It is the only TU compiled with -mavx2 (see
 * src/hash/CMakeLists.txt), so the rest of the library keeps the
 * baseline ISA and the portable fallback stays usable on any x86-64.
 * Backend selection happens in laneDispatch() (sha256xN.cc); the
 * 16-lane AVX-512 instantiation lives in sha256x16_avx512.cc.
 */

#ifdef HEROSIGN_HAVE_AVX2

#include "hash/sha256_lanes_simd.hh"

namespace herosign
{

namespace
{

struct Avx2
{
    using V = __m256i;
    using Mask = __m256i;
    static constexpr unsigned width = 8;

    static V add(V a, V b) { return _mm256_add_epi32(a, b); }
    static V bitOr(V a, V b) { return _mm256_or_si256(a, b); }
    template <int N>
    static V shl(V x) { return _mm256_slli_epi32(x, N); }
    template <int N>
    static V shr(V x) { return _mm256_srli_epi32(x, N); }

    template <int N>
    static V
    ror(V x)
    {
        return _mm256_or_si256(_mm256_srli_epi32(x, N),
                               _mm256_slli_epi32(x, 32 - N));
    }

    static V
    xor3(V x, V y, V z)
    {
        return _mm256_xor_si256(_mm256_xor_si256(x, y), z);
    }

    /** (e & f) ^ (~e & g) */
    static V
    ch(V e, V f, V g)
    {
        return _mm256_xor_si256(_mm256_and_si256(e, f),
                                _mm256_andnot_si256(e, g));
    }

    static V
    maj(V a, V b, V c)
    {
        return _mm256_xor_si256(
            _mm256_xor_si256(_mm256_and_si256(a, b),
                             _mm256_and_si256(a, c)),
            _mm256_and_si256(b, c));
    }

    static V
    set1(uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }

    static V load(const uint32_t *p) { return loadRow(p); }
    static void store(uint32_t *p, V x) { storeRow(p, x); }
    static __m256i half(V x, unsigned) { return x; }
    static V join(const __m256i *r) { return r[0]; }

    /** Positions stay far below 2^31, so signed compares are exact. */
    static Mask
    inRange(V lo, V hi, V p)
    {
        return _mm256_andnot_si256(_mm256_cmpgt_epi32(lo, p),
                                   _mm256_cmpgt_epi32(hi, p));
    }

    static Mask
    andEq(Mask m, V a, V b)
    {
        return _mm256_and_si256(m, _mm256_cmpeq_epi32(a, b));
    }

    static V
    blend(V old, V x, Mask m)
    {
        return _mm256_blendv_epi8(old, x, m);
    }

    static void
    maskStore(uint32_t *p, Mask m, V x)
    {
        _mm256_maskstore_epi32(reinterpret_cast<int *>(p), m, x);
    }
};

} // namespace

void
sha256Compress8Avx2(std::array<uint32_t, 8> state[8],
                    const uint8_t *const blocks[8])
{
    compress<Avx2>(state, blocks);
}

void
sha256Final8SeededAvx2(const std::array<uint32_t, 8> &mid,
                       const uint8_t *const blocks[8],
                       uint8_t *const digests[8])
{
    finalSeeded<Avx2>(mid, blocks, digests);
}

template <unsigned NW>
void
sha256ChainF8SeededAvx2(const Sha256State &mid, ChainLanes &lanes)
{
    chainF<Avx2, NW>(mid, lanes);
}

template void sha256ChainF8SeededAvx2<4>(const Sha256State &,
                                         ChainLanes &);
template void sha256ChainF8SeededAvx2<6>(const Sha256State &,
                                         ChainLanes &);
template void sha256ChainF8SeededAvx2<8>(const Sha256State &,
                                         ChainLanes &);

} // namespace herosign

#endif // HEROSIGN_HAVE_AVX2
