/**
 * @file
 * The lane-parallel SHA-256 algorithm, written once for every SIMD
 * tier. Internal header: only the ISA translation units include it
 * (sha256x8_avx2.cc with -mavx2, sha256x16_avx512.cc with -mavx512f).
 * Each defines a register-traits type T and instantiates the templates
 * below with it, the way HERO-Sign compiles one SHA-256 kernel source
 * into a code path per target.
 *
 * Layout: fully transposed. Each SHA-256 state word a..h is one T::V
 * register whose 32-bit element l belongs to lane l, and so is each of
 * the 64 message-schedule words, so schedule expansion and the round
 * function run once for all T::width lanes. Per-lane rows move in and
 * out of that layout through 8x8 transposes of 256-bit rows, one per
 * group of eight lanes, and a byte shuffle does the big-endian
 * conversion; both tiers use the same 256-bit helpers (-mavx512f
 * implies AVX2).
 *
 * The traits T provide:
 *  * V, Mask, width — a register of width (8 or 16) lanes and a
 *    per-lane predicate;
 *  * add, bitOr, shl<N>, shr<N>, ror<N>, xor3, ch, maj, set1;
 *  * load, store — width consecutive uint32_t;
 *  * half(x, h) — the 256-bit half of x holding lanes 8h..8h+7, and
 *    join(r) — the register whose half h is r[8h];
 *  * inRange(lo, hi, p) — lanes with lo <= p < hi; andEq(m, a, b) —
 *    lanes of m where a == b; blend(old, x, m) — x where m, else old;
 *    maskStore(p, m, x) — store the lanes of x selected by m.
 *
 * Linkage: everything here, and each TU's traits, sits in an anonymous
 * namespace, so each TU keeps its own copy compiled for its own ISA.
 * With external or weak linkage the linker could keep the -mavx512f
 * copy of a shared helper for both tiers and run AVX-512 code on an
 * AVX2-only CPU. For the same reason the code below calls no inline
 * std:: function (an -O0 build emits those as weak symbols): std::array
 * storage is reached by address, and round constants by plain index.
 * The isa_linkage_check CTest (scripts/check_isa_linkage.sh) enforces
 * that the ISA objects define nothing else with external linkage.
 */

#ifndef HEROSIGN_HASH_SHA256_LANES_SIMD_HH
#define HEROSIGN_HASH_SHA256_LANES_SIMD_HH

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "hash/sha256_tables.hh"
#include "hash/sha256xN.hh"

namespace herosign
{

namespace
{

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
 * Converts between "row per lane" and "register per word" layouts (the
 * network is its own inverse).
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

inline __m256i
loadRow(const void *p)
{
    return _mm256_loadu_si256(static_cast<const __m256i *>(p));
}

inline void
storeRow(void *p, __m256i x)
{
    _mm256_storeu_si256(static_cast<__m256i *>(p), x);
}

/**
 * Row per lane -> register per word: rows[l] holds lane l's eight
 * words on entry; on return w[i] holds word i of every lane. Clobbers
 * rows.
 */
template <class T>
inline void
fromRows(typename T::V w[8], __m256i rows[T::width])
{
    for (unsigned g = 0; g < T::width / 8; ++g)
        transpose8x8(rows + 8 * g);
    for (int i = 0; i < 8; ++i)
        w[i] = T::join(rows + i);
}

/** Inverse of fromRows: rows[l] receives lane l's eight words. */
template <class T>
inline void
toRows(__m256i rows[T::width], const typename T::V w[8])
{
    for (unsigned g = 0; g < T::width / 8; ++g) {
        for (int i = 0; i < 8; ++i)
            rows[8 * g + i] = T::half(w[i], g);
        transpose8x8(rows + 8 * g);
    }
}

/** w[i] element l = big-endian word i of lane l's 64-byte block. */
template <class T>
inline void
loadBlocks(typename T::V w[16], const uint8_t *const blocks[])
{
    for (unsigned off = 0; off < 64; off += 32) {
        __m256i rows[T::width];
        for (unsigned l = 0; l < T::width; ++l)
            rows[l] = bswap32(loadRow(blocks[l] + off));
        fromRows<T>(w + off / 4, rows);
    }
}

/** Every lane at the shared chaining state @p mid: one broadcast per
 * word. */
template <class T>
inline void
broadcastState(typename T::V s[8], const std::array<uint32_t, 8> &mid)
{
    uint32_t h[8];
    std::memcpy(h, &mid, sizeof h);
    for (int i = 0; i < 8; ++i)
        s[i] = T::set1(h[i]);
}

/** SHA-256 small sigma: ror<A>(x) ^ ror<B>(x) ^ shr<C>(x). */
template <class T, int A, int B, int C>
inline typename T::V
sigma(typename T::V x)
{
    return T::xor3(T::template ror<A>(x), T::template ror<B>(x),
                   T::template shr<C>(x));
}

/** SHA-256 big sigma: ror<A>(x) ^ ror<B>(x) ^ ror<C>(x). */
template <class T, int A, int B, int C>
inline typename T::V
bigSigma(typename T::V x)
{
    return T::xor3(T::template ror<A>(x), T::template ror<B>(x),
                   T::template ror<C>(x));
}

/** Message schedule words [from, 64) from their predecessors. */
template <class T>
inline void
expand(typename T::V w[64], int from = 16)
{
    for (int i = from; i < 64; ++i) {
        w[i] = T::add(
            T::add(w[i - 16], sigma<T, 7, 18, 3>(w[i - 15])),
            T::add(w[i - 7], sigma<T, 17, 19, 10>(w[i - 2])));
    }
}

/** Rounds [from, to) on the working variables v = a..h, in place. */
template <class T>
inline void
roundRange(typename T::V v[8], const typename T::V w[64], int from,
           int to)
{
    using V = typename T::V;
    V a = v[0], b = v[1], c = v[2], d = v[3];
    V e = v[4], f = v[5], g = v[6], h = v[7];

    for (int i = from; i < to; ++i) {
        V t1 = T::add(T::add(T::add(h, bigSigma<T, 6, 11, 25>(e)),
                             T::add(T::ch(e, f, g),
                                    T::set1(sha256tables::K[i]))),
                      w[i]);
        V t2 = T::add(bigSigma<T, 2, 13, 22>(a), T::maj(a, b, c));
        h = g;
        g = f;
        f = e;
        e = T::add(d, t1);
        d = c;
        c = b;
        b = a;
        a = T::add(t1, t2);
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
template <class T>
inline void
rounds(typename T::V s[8], typename T::V w[64])
{
    expand<T>(w);
    typename T::V v[8];
    for (int i = 0; i < 8; ++i)
        v[i] = s[i];
    roundRange<T>(v, w, 0, 64);
    for (int i = 0; i < 8; ++i)
        s[i] = T::add(s[i], v[i]);
}

/** Generic transposed compression: one block per lane, own states. */
template <class T>
inline void
compress(std::array<uint32_t, 8> state[], const uint8_t *const blocks[])
{
    typename T::V w[64];
    loadBlocks<T>(w, blocks);

    __m256i rows[T::width];
    for (unsigned l = 0; l < T::width; ++l)
        rows[l] = loadRow(&state[l]);
    typename T::V s[8];
    fromRows<T>(s, rows);

    rounds<T>(s, w);

    toRows<T>(rows, s);
    for (unsigned l = 0; l < T::width; ++l)
        storeRow(&state[l], rows[l]);
}

/**
 * Seeded one-block final: every lane resumes from the shared state
 * @p mid (no state transpose), absorbs one pre-padded block and emits
 * its 32-byte big-endian digest.
 */
template <class T>
inline void
finalSeeded(const std::array<uint32_t, 8> &mid,
            const uint8_t *const blocks[], uint8_t *const digests[])
{
    typename T::V w[64];
    loadBlocks<T>(w, blocks);

    typename T::V s[8];
    broadcastState<T>(s, mid);

    rounds<T>(s, w);

    __m256i rows[T::width];
    toRows<T>(rows, s);
    for (unsigned l = 0; l < T::width; ++l)
        storeRow(digests[l], bswap32(rows[l]));
}

/**
 * The fused WOTS+ chain walk over lanes [0, T::width) of @p lanes
 * (contract in sha256xN.hh, ChainLanes). @p NW is n / 4.
 */
template <class T, unsigned NW>
inline void
chainF(const Sha256State &mid, ChainLanes &lanes)
{
    static_assert(NW == 4 || NW == 6 || NW == 8, "n must be 16/24/32");
    using V = typename T::V;

    // Captures go straight to memory by masked store, so they hold no
    // registers across the step loop.
    V v[NW];
    for (unsigned k = 0; k < NW; ++k) {
        v[k] = T::load(lanes.val[k]);
        T::store(lanes.cap[k], v[k]);
    }

    // The loop runs over absolute positions, so the hash index is the
    // same in every lane and lanes outside their range sit out by
    // mask.
    uint32_t first = UINT32_MAX, last = 0;
    for (unsigned l = 0; l < T::width; ++l) {
        if (lanes.start[l] < lanes.end[l]) {
            first = lanes.start[l] < first ? lanes.start[l] : first;
            last = lanes.end[l] > last ? lanes.end[l] : last;
        }
    }

    V s0[8];
    broadcastState<T>(s0, mid.h);

    // Words 0-4 (the address prefix) are fixed for the call: run
    // rounds 0-4 and the constant half of w[16..19] once.
    V w[64];
    for (int i = 0; i < 5; ++i)
        w[i] = T::load(lanes.prefix[i]);
    V head[8];
    for (int i = 0; i < 8; ++i)
        head[i] = s0[i];
    V sched_head[4];
    for (int i = 0; i < 4; ++i)
        sched_head[i] = T::add(w[i], sigma<T, 7, 18, 3>(w[i + 1]));
    roundRange<T>(head, w, 0, 5);

    const V start = T::load(lanes.start);
    const V end = T::load(lanes.end);
    const V cap_pos = T::load(lanes.capPos);
    const V pad = T::set1(0x8000);
    const V zero = T::set1(0);
    const V bit_len = T::set1(
        static_cast<uint32_t>((mid.bytesCompressed + 22 + 4 * NW) * 8));

    for (uint32_t p = first; p < last; ++p) {
        w[5] = T::bitOr(T::set1(p << 16), T::template shr<16>(v[0]));
        for (unsigned k = 1; k < NW; ++k)
            w[5 + k] = T::bitOr(T::template shl<16>(v[k - 1]),
                                T::template shr<16>(v[k]));
        w[5 + NW] = T::bitOr(T::template shl<16>(v[NW - 1]), pad);
        for (unsigned i = 6 + NW; i < 15; ++i)
            w[i] = zero;
        w[15] = bit_len;

        for (int i = 16; i < 20; ++i)
            w[i] = T::add(
                sched_head[i - 16],
                T::add(w[i - 7], sigma<T, 17, 19, 10>(w[i - 2])));
        expand<T>(w, 20);

        V x[8];
        for (int i = 0; i < 8; ++i)
            x[i] = head[i];
        roundRange<T>(x, w, 5, 64);

        const typename T::Mask live =
            T::inRange(start, end, T::set1(p));
        const typename T::Mask grab =
            T::andEq(live, cap_pos, T::set1(p + 1));
        for (unsigned k = 0; k < NW; ++k) {
            const V dk = T::add(s0[k], x[k]);
            v[k] = T::blend(v[k], dk, live);
            T::maskStore(lanes.cap[k], grab, dk);
        }
    }

    for (unsigned k = 0; k < NW; ++k)
        T::store(lanes.val[k], v[k]);
}

} // namespace

} // namespace herosign

#endif // HEROSIGN_HASH_SHA256_LANES_SIMD_HH
