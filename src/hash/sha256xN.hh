/**
 * @file
 * Width-generic lane-parallel SHA-256: N independent hashes advanced
 * in lockstep, N chosen by the dispatched backend.
 *
 * This is the CPU analogue of HERO-Sign's core batching idea — the
 * SPHINCS+ hot loops (WOTS+ chains, FORS leaves, Merkle leaf layers)
 * are thousands of independent fixed-shape hash calls, so they map
 * onto parallel lanes. Three backends compute bit-identical digests:
 *
 *  * AVX-512 — 16 lanes, fully transposed state, one `__m512i` per
 *    SHA-256 state word (src/hash/sha256x16_avx512.cc, the only TU
 *    compiled with -mavx512f).
 *  * AVX2 — 8 lanes, one `__m256i` per state word
 *    (src/hash/sha256x8_avx2.cc, the only TU compiled with -mavx2).
 *  * Portable — a scalar loop over the lanes using the same
 *    compression function as Sha256; always available, any width.
 *
 * The two SIMD backends are one algorithm instantiated per ISA: the
 * schedule expansion, the rounds, the generic compression, the seeded
 * one-block final and the chain walk are written once as templates in
 * the internal header sha256_lanes_simd.hh, and each ISA TU supplies
 * only its register traits (arithmetic, rotates, Ch/Maj, loads and
 * stores, lane masks) and the entry points declared below.
 *
 * All gating lives in ONE place, laneDispatch(), and every input to
 * it is a ceiling on one ordered ladder of tiers, Scalar < Avx2 <
 * Avx512: a tier's kernels need every tier below it (an x16 batch
 * ends in x8 tails), so each override only ever caps the ladder and
 * dispatch runs the lowest of five ceilings:
 *
 *  * the hardware — the CMake gates HEROSIGN_ENABLE_AVX2 /
 *    HEROSIGN_ENABLE_AVX512 (AVX-512 is built only over AVX2) and
 *    cpuid, read once;
 *  * the environment, snapshotted on the first dispatch query:
 *    HEROSIGN_DISABLE_AVX2 (any non-empty value but "0") caps at
 *    Scalar, HEROSIGN_DISABLE_AVX512 at Avx2 — set them before
 *    startup, as the CI lane-matrix jobs do;
 *  * sha256LanesSetCeiling(), the process-wide switch benches and
 *    tests use to pin a tier mid-process;
 *  * the verify-after-sign guard's quarantine ceiling;
 *  * ScopedScalarLanes, which pins the current thread to Scalar.
 *
 * The portable tier batches 8 wide so scalar-mode hash shapes match
 * the 8-lane engine.
 *
 * Beside the generic engine, each SIMD backend carries two fused
 * SPHINCS+ kernels: the seeded single-block kernel (one F/PRF call
 * per lane) and the WOTS+ chain kernel (ChainLanes,
 * sha256ChainF16SeededAvx512 / sha256ChainF8SeededAvx2), which walks
 * every step of up to 16 chains with the chain values kept in vector
 * registers: the next block is built from 16-bit shifts of the
 * previous digest, and only the hash-index halfword changes per step.
 *
 * All lanes always absorb the same number of bytes per call — exactly
 * the shape of SPHINCS+ tweakable-hash batches, where every lane
 * hashes adrs_c || input of a common length. A batch whose lane count
 * is not a multiple of the SIMD width ends in a padded tail: the last
 * two or more real lanes run as one 8- or 16-wide call whose ghost
 * lanes are discarded (laneCallWidth). A compression step over W real
 * lanes charges W to Sha256::compressionCount() whatever the padding,
 * so hash accounting matches W scalar calls exactly at every width.
 */

#ifndef HEROSIGN_HASH_SHA256XN_HH
#define HEROSIGN_HASH_SHA256XN_HH

#include <array>
#include <cstdint>

#include "common/bytes.hh"
#include "hash/sha256.hh"

namespace herosign
{

/** Hard upper bound on SIMD lane width (the AVX-512 backend). */
constexpr size_t maxSha256Lanes = 16;

/**
 * The lane tiers in ladder order: each tier's kernels need every tier
 * below it, so dispatch is the lowest of its ceilings.
 */
enum class LaneBackend { Scalar, Avx2, Avx512 };

/** Snapshot of the lane dispatch decision. */
struct LaneDispatch
{
    LaneBackend backend; ///< the tier the next call may run
    unsigned width;      ///< batch width to target: 16 on Avx512, else 8
};

/**
 * The single source of truth for backend selection: the lowest of the
 * hardware, environment, set, quarantine and thread-scope ceilings
 * (see the file comment).
 */
LaneDispatch laneDispatch();

/**
 * Cap dispatch at @p ceiling process-wide; LaneBackend::Avx512 lifts
 * the cap. Benches and tests pin a tier with it. The hardware and the
 * startup environment still win when they are lower.
 */
void sha256LanesSetCeiling(LaneBackend ceiling);

/**
 * True when environment variable @p var is set to a truthy value
 * (non-empty and not exactly "0") — the parse the disable knobs use.
 * Reads the CURRENT environment, not the startup snapshot; exposed so
 * the tests can pin the parse semantics.
 */
bool laneEnvFlagEnabled(const char *var);

/**
 * Quarantine one SIMD tier process-wide: the quarantine ceiling drops
 * to the tier below @p tier, so laneDispatch() stops selecting it (and
 * every tier above it) for every subsequent call, on every thread.
 * This is the verify-after-sign guard's response to a signature that
 * failed verification — a faulty vector unit (or a fault-injection
 * run) must not keep producing corrupt hashes. Quarantining Avx2
 * demotes to fully portable lanes, AVX-512 included: the shared
 * vector register file is suspect. Quarantining Scalar is a no-op. The
 * quarantine count rises only when the ceiling drops. Sticky until
 * sha256LanesClearQuarantines().
 */
void sha256LanesQuarantine(LaneBackend tier);

/**
 * Quarantine whatever SIMD tier laneDispatch() currently selects and
 * return it; returns LaneBackend::Scalar (and changes nothing) when
 * dispatch is already portable.
 */
LaneBackend sha256LanesQuarantineActiveTier();

/** Times the quarantine ceiling dropped (process-wide, monotonic). */
uint64_t sha256LanesQuarantineCount();

/** Lift the quarantine ceiling (tests and operator intervention only). */
void sha256LanesClearQuarantines();

/**
 * RAII thread-local override pinning laneDispatch() to the portable
 * backend for the current thread only — the verify-after-sign
 * guard's forced-scalar re-sign path. Nestable; other threads keep
 * their SIMD dispatch.
 */
class ScopedScalarLanes
{
  public:
    ScopedScalarLanes();
    ~ScopedScalarLanes();
    ScopedScalarLanes(const ScopedScalarLanes &) = delete;
    ScopedScalarLanes &operator=(const ScopedScalarLanes &) = delete;

    /** True while any ScopedScalarLanes is live on this thread. */
    static bool activeOnThisThread();

  private:
    bool prev_;
};

/**
 * Width of the next SIMD call over @p remaining real lanes of one
 * batch on tier @p backend: 16 or 8, or 0 when the lanes run scalar
 * (fewer than two left, or the portable tier). A ragged tail of two or
 * more lanes runs as one padded call on the narrowest tier that
 * covers it: its ghost lanes hash a copy of a real lane's block and
 * their output is discarded. One x8 or x16 call costs about as much
 * as two scalar compressions (bench/micro_hash, BM_ThashXOneBlock*
 * rows), hence the two-lane threshold.
 */
inline unsigned
laneCallWidth(LaneBackend backend, unsigned remaining)
{
    if (remaining < 2 || backend == LaneBackend::Scalar)
        return 0;
    return backend == LaneBackend::Avx512 && remaining > 8 ? 16 : 8;
}

/**
 * Incremental lane-parallel SHA-256 hasher over a fixed number of
 * lanes (uniform lane lengths). The width is a runtime constructor
 * argument, 1..maxSha256Lanes; each compression step runs full
 * SIMD calls, then a padded call for a ragged tail of two or more
 * lanes, then a scalar compression for a lone last lane
 * (laneCallWidth), so any width is valid on any backend and digests
 * are bit-identical everywhere. Only real lanes are charged to
 * Sha256::compressionCount().
 */
class Sha256Lanes
{
  public:
    static constexpr size_t maxLanes = maxSha256Lanes;
    static constexpr size_t digestSize = Sha256::digestSize;
    static constexpr size_t blockSize = Sha256::blockSize;

    explicit Sha256Lanes(unsigned width);

    /**
     * Resume all lanes from one captured mid-state — the SPHINCS+
     * per-keypair "pk_seed || padding" state shared by every
     * tweakable-hash call under one key.
     */
    Sha256Lanes(unsigned width, const Sha256State &state);

    unsigned width() const { return width_; }

    /** Absorb @p len bytes into lane l from data[l], for all lanes. */
    void update(const uint8_t *const data[], size_t len);

    /**
     * Finalize lane l into out[l] (32 bytes each). The hasher must not
     * be reused.
     */
    void final(uint8_t *const out[]);

  private:
    void compressAll(const uint8_t *const blocks[]);
    void compressBuffers();

    std::array<uint32_t, 8> h_[maxLanes];
    uint8_t buf_[maxLanes][blockSize];
    size_t bufLen_;
    uint64_t total_;
    unsigned width_;
    LaneBackend tier_;
};

/**
 * AVX2 backend entry points (defined in sha256x8_avx2.cc when
 * HEROSIGN_ENABLE_AVX2 is on; exposed for the unit tests and the
 * batched tweakable-hash layer — normal users go through
 * Sha256Lanes). Callers must check that laneDispatch().backend is
 * at least Avx2 first; the stubs throw otherwise.
 * Neither entry point touches Sha256::compressionCount() — callers
 * account.
 */
void sha256Compress8Avx2(std::array<uint32_t, 8> state[8],
                         const uint8_t *const blocks[8]);

/**
 * Fused SPHINCS+ fast path: resume all 8 lanes from the shared
 * chaining state @p mid, compress exactly one pre-padded 64-byte
 * block per lane, and emit the 32-byte digests. This is the shape of
 * every batched F/PRF call (adrs_c || input fits one final block).
 */
void sha256Final8SeededAvx2(const std::array<uint32_t, 8> &mid,
                            const uint8_t *const blocks[8],
                            uint8_t *const digests[8]);

/**
 * AVX-512 backend entry points (defined in sha256x16_avx512.cc when
 * HEROSIGN_ENABLE_AVX512 is on): the 16-lane analogues of the AVX2
 * pair above, with the same contracts — check that
 * laneDispatch().backend is Avx512 first, callers account for
 * compressions.
 */
void sha256Compress16Avx512(std::array<uint32_t, 8> state[16],
                            const uint8_t *const blocks[16]);

/**
 * Fused 16-lane seeded single-block kernel: the shared mid-state is
 * broadcast (no state transpose), one pre-padded block per lane, 32
 * bytes of digest out per lane.
 */
void sha256Final16SeededAvx512(const std::array<uint32_t, 8> &mid,
                               const uint8_t *const blocks[16],
                               uint8_t *const digests[16]);

/**
 * Fused WOTS+ chain lanes: up to maxSha256Lanes independent F chains
 * in transposed, word-per-row form, the in/out state of one chain
 * call. Every chain step hashes the 64-byte block
 *
 *     adrs_c (22 B) || value (n B) || 0x80 || 0...0 || bit length
 *
 * on top of the per-key seeded mid-state, and only two things change
 * from one step to the next: the hash-index halfword at bytes 20-21
 * and the value. Because the value sits at byte 22, block word 5 and
 * on are 16-bit shifts of the previous digest's words; the first five
 * words (layer, tree, type, keypair, chain) stay fixed per lane.
 *
 * Lane l steps positions [start[l], end[l]): the step at position p
 * runs with hash index p and leaves the chain at position p + 1. A
 * lane with start == end is dead for the call (ghost lanes of a
 * padded call are dead). cap[·][l] receives the value at position
 * capPos[l] when start[l] <= capPos[l] <= end[l]; it is left at the
 * entry value otherwise.
 */
struct alignas(64) ChainLanes
{
    /** Big-endian words 0..4 of each lane's compressed address. */
    uint32_t prefix[5][maxSha256Lanes];
    /** Value words, big-endian, zero-padded past n bytes (in/out). */
    uint32_t val[8][maxSha256Lanes];
    /** Captured value words (out). */
    uint32_t cap[8][maxSha256Lanes];
    uint32_t start[maxSha256Lanes];
    uint32_t end[maxSha256Lanes];
    uint32_t capPos[maxSha256Lanes];

    /** Load lane @p l's n-byte value into val. */
    void loadValue(unsigned l, const uint8_t *in, unsigned n);
    /** Store lane @p l's n-byte value from val. */
    void storeValue(unsigned l, uint8_t *out, unsigned n) const;
    /** Store lane @p l's n-byte captured value from cap. */
    void storeCapture(unsigned l, uint8_t *out, unsigned n) const;
};

/**
 * True when the SIMD chain kernels cover value length @p n (16, 24 or
 * 32 bytes — whole 64-bit halves, so the block layout is fixed per
 * n/4). Other lengths run the portable walk.
 */
inline bool
chainKernelCovers(unsigned n)
{
    return n == 16 || n == 24 || n == 32;
}

/**
 * Fused 16-lane WOTS+ chain kernel (AVX-512): walks every position
 * from the smallest live start to the largest live end in vector
 * registers — no block repacking, no transposes, no digest copies
 * between steps. Lanes outside their [start, end) hold their value by
 * mask; capture positions copy out by mask. @p NW is n / 4 (4, 6 or
 * 8). Same contract as the one-block kernels: check for the
 * Avx512 tier first; the caller charges compressions.
 */
template <unsigned NW>
void sha256ChainF16SeededAvx512(const Sha256State &mid,
                                ChainLanes &lanes);

/** The 8-lane AVX2 twin of sha256ChainF16SeededAvx512 (lanes 0-7). */
template <unsigned NW>
void sha256ChainF8SeededAvx2(const Sha256State &mid, ChainLanes &lanes);

/**
 * Run one chain call over lanes [0, @p count) of @p lanes with value
 * length @p n: @p call_width 16 or 8 selects the AVX-512 or AVX2
 * kernel (chainKernelCovers(n) must hold, and the ghost lanes past
 * count must be dead); 0 runs the portable walk, one
 * sha256CompressNative per live lane and step, for any n up to 32.
 * Every tier leaves bit-identical values and captures. Does not
 * touch Sha256::compressionCount() — callers account. Throws
 * std::invalid_argument for count > maxSha256Lanes, n > 32, a call
 * width other than 0, 8 or 16, or count > call_width on a SIMD call.
 */
void sha256ChainF(unsigned call_width, unsigned n, unsigned count,
                  const Sha256State &mid, ChainLanes &lanes);

} // namespace herosign

#endif // HEROSIGN_HASH_SHA256XN_HH
