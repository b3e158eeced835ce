/**
 * @file
 * SHA-256 (FIPS 180-4) with an incremental API and mid-state capture.
 *
 * Every compression is sha256CompressNative, the conventional
 * shift/rotate implementation a CUDA kernel would compile from plain
 * C. The paper's hand-written PTX branch (§III-C, Fig. 5) computes the
 * same states with a different instruction mix; that choice exists
 * here only as the GPU cost model's PTX/native label
 * (core::Sha256Variant in core/config.hh), never as a CPU code path.
 *
 * Mid-state capture (state after compressing whole blocks) enables the
 * SPHINCS+ optimization of precomputing the state of the 64-byte
 * pk_seed padding block once per keypair.
 *
 * For hot loops hashing many independent inputs of one shape, see the
 * lane-batched sibling in hash/sha256xN.hh: a width-generic lane
 * engine (16-lane AVX-512 and 8-lane AVX2 backends with a
 * bit-identical portable fallback) that resumes all lanes from the
 * same Sha256State and keeps compressionCount() consistent with the
 * same number of scalar calls.
 */

#ifndef HEROSIGN_HASH_SHA256_HH
#define HEROSIGN_HASH_SHA256_HH

#include <array>
#include <cstdint>

#include "common/bytes.hh"

namespace herosign
{

/** Captured SHA-256 chaining state after a whole number of blocks. */
struct Sha256State
{
    std::array<uint32_t, 8> h;
    uint64_t bytesCompressed = 0;
};

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    static constexpr size_t digestSize = 32;
    static constexpr size_t blockSize = 64;

    Sha256();

    /** Resume from a previously captured mid-state. */
    explicit Sha256(const Sha256State &state);

    /** Absorb @p data. */
    void update(ByteSpan data);

    /**
     * Capture the chaining state. Only valid when a whole number of
     * 64-byte blocks has been absorbed (no buffered partial block).
     * @throws std::logic_error otherwise.
     */
    Sha256State midState() const;

    /** Finalize into @p out (32 bytes). The hasher must not be reused. */
    void final(uint8_t *out);

    /** One-shot convenience. */
    static std::array<uint8_t, digestSize> digest(ByteSpan data);

    /**
     * Global (thread-local) count of compression-function invocations;
     * used by tests and by cost-model calibration to cross-check the
     * analytic operation counts against real executions.
     */
    static uint64_t compressionCount();
    static void resetCompressionCount();

    /**
     * Charge @p count compressions to the global counter. Used by the
     * multi-lane engine (hash/sha256xN.hh) so one W-wide compression
     * accounts like W scalar ones.
     */
    static void addCompressions(uint64_t count);

  private:
    void compress(const uint8_t *block);

    std::array<uint32_t, 8> h_;
    uint8_t buf_[blockSize];
    size_t bufLen_;
    uint64_t total_;
};

/**
 * The scalar compression function every portable path runs. Normal
 * users go through Sha256.
 */
void sha256CompressNative(std::array<uint32_t, 8> &state,
                          const uint8_t *block);

} // namespace herosign

#endif // HEROSIGN_HASH_SHA256_HH
