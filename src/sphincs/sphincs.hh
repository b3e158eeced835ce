/**
 * @file
 * SPHINCS+ top level: key generation, signing and verification on
 * the CPU, with the hot loops batched across SIMD hash lanes. Every
 * signature comes from one group routine, signGroup(), and every
 * verdict from another, verifyBatch(): sign() and verify() are groups
 * of one. This is the library's correctness oracle — the
 * GPU-simulated engines must produce byte-identical signatures.
 */

#ifndef HEROSIGN_SPHINCS_SPHINCS_HH
#define HEROSIGN_SPHINCS_SPHINCS_HH

#include <optional>

#include "common/bytes.hh"
#include "common/random.hh"
#include "sphincs/context.hh"
#include "sphincs/params.hh"

namespace herosign::sphincs
{

/** A SPHINCS+ secret key (sk_seed, sk_prf, pk_seed, pk_root). */
struct SecretKey
{
    Params params;
    ByteVec skSeed;
    ByteVec skPrf;
    ByteVec pkSeed;
    ByteVec pkRoot;

    /** Serialize as sk_seed || sk_prf || pk_seed || pk_root. */
    ByteVec encode() const;

    /** Parse from the serialized form. */
    static SecretKey decode(const Params &params, ByteSpan bytes);

    /**
     * Securely zeroize the secret seeds (sk_seed, sk_prf) in place.
     * The single definition of which fields are secret — every owner
     * releasing a key copy must call this, not hand-roll the list.
     */
    void zeroize();
};

/** A SPHINCS+ public key (pk_seed, pk_root). */
struct PublicKey
{
    Params params;
    ByteVec pkSeed;
    ByteVec pkRoot;

    /** Serialize as pk_seed || pk_root. */
    ByteVec encode() const;

    /** Parse from the serialized form. */
    static PublicKey decode(const Params &params, ByteSpan bytes);
};

/** A generated keypair. */
struct KeyPair
{
    SecretKey sk;
    PublicKey pk;
};

/**
 * The (idx_tree, idx_leaf, fors message) selection extracted from the
 * H_msg digest (spec Alg. 20 lines 7-12).
 */
struct DigestSplit
{
    ByteVec forsMsg;    ///< ceil(k*a/8) bytes feeding FORS
    uint64_t idxTree;   ///< which bottom-layer subtree chain
    uint32_t idxLeaf;   ///< leaf within the bottom subtree
};

/** Split an H_msg digest into its three fields. */
DigestSplit splitDigest(const Params &params, ByteSpan digest);

/**
 * The SPHINCS+ signature scheme over one parameter set.
 *
 * All methods are deterministic given their inputs; randomized signing
 * is obtained by passing fresh opt_rand.
 */
class SphincsPlus
{
  public:
    explicit SphincsPlus(const Params &params);

    const Params &params() const { return params_; }

    /** Generate a keypair from an RNG (draws 3n seed bytes). */
    KeyPair keygen(Rng &rng) const;

    /**
     * Generate a keypair from a fixed 3n-byte seed
     * (sk_seed || sk_prf || pk_seed) — deterministic, for tests.
     */
    KeyPair keygenFromSeed(ByteSpan seed) const;

    /**
     * Sign @p msg.
     * @param opt_rand n bytes of signing randomness; empty selects the
     *        deterministic variant (opt_rand = pk_seed).
     * @return the sigBytes()-long signature
     */
    ByteVec sign(ByteSpan msg, const SecretKey &sk,
                 ByteSpan opt_rand = {}) const;

    /**
     * Sign @p msg reusing a warm context: signGroup() with a group of
     * one. This is the serving-layer hot path: no per-sign Context
     * construction.
     */
    ByteVec sign(const Context &ctx, ByteSpan msg, const SecretKey &sk,
                 ByteSpan opt_rand = {}) const;

    /**
     * Sign @p count messages under one key as one group, the
     * sign-side twin of verifyBatch(): sigs[i] receives the signature
     * of msgs[i], byte-identical to signing it alone. After R and the
     * digest of each member, forsSignXN() builds the FORS trees of
     * all members in lockstep and merkleSignXN() runs each hypertree
     * layer for all members at once, so hash lanes fill across
     * signatures as well as within them.
     *
     * @param ctx warm context built for this parameter set and @p sk
     *        (same pk_seed and sk_seed) — checked, throws
     *        std::invalid_argument on mismatch
     * @param opt_rands count entries of n bytes each, or empty for
     *        deterministic signing; nullptr makes every member
     *        deterministic. A wrong length throws
     *        std::invalid_argument before any member is signed.
     * @param count 0..16 (0 does nothing; more throws
     *        std::invalid_argument)
     */
    void signGroup(const Context &ctx, const SecretKey &sk,
                   const ByteSpan msgs[], const ByteSpan opt_rands[],
                   ByteVec sigs[], unsigned count) const;

    /**
     * Verify @p sig over @p msg under @p pk: verifyBatch() with a
     * group of one, so a single verification and a batch run the same
     * FORS / WOTS+ / Merkle walk. A signature of the wrong length is
     * false.
     */
    bool verify(ByteSpan msg, ByteSpan sig, const PublicKey &pk) const;

    /**
     * Verify reusing a warm context. @p ctx must be built for this
     * parameter set and carry the public key's pk_seed (a signing
     * context for the same keypair works) — checked, throws
     * std::invalid_argument on mismatch.
     */
    bool verify(const Context &ctx, ByteSpan msg, ByteSpan sig,
                const PublicKey &pk) const;

    /**
     * Batched verification reusing a warm context (checked like
     * verify(const Context &, ...)): ok[i] is whether sigs[i] is a
     * valid signature over msgs[i] under @p pk, for i < count.
     * Wrong-length signatures are false up front; the rest verify in
     * lane groups of the dispatched width (16 on AVX-512, 8
     * elsewhere), each group walking FORS and the hypertree layers in
     * lockstep so the WOTS+ chain recompute, the FORS leaf and
     * auth-path walks and the Merkle root reconstruction fill hash
     * lanes across signatures. Verdicts and compression counts are
     * the same at every lane width.
     */
    void verifyBatch(const Context &ctx, const ByteSpan msgs[],
                     const ByteSpan sigs[], const PublicKey &pk,
                     bool ok[], size_t count) const;

    /**
     * Vector convenience overload: out[i] is 1 when (msgs[i],
     * sigs[i]) verifies. Throws std::invalid_argument on a msgs/sigs
     * size mismatch.
     */
    std::vector<uint8_t> verifyBatch(const Context &ctx,
                                     const std::vector<ByteSpan> &msgs,
                                     const std::vector<ByteSpan> &sigs,
                                     const PublicKey &pk) const;

    /** Compute the hypertree root for a secret key (keygen internal). */
    ByteVec computePkRoot(ByteSpan sk_seed, ByteSpan pk_seed) const;

  private:
    /**
     * Throw std::invalid_argument unless @p ctx was built for this
     * parameter set and carries @p pk_seed.
     */
    void requireContext(const Context &ctx, ByteSpan pk_seed,
                        const char *who) const;

    Params params_;
};

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_SPHINCS_HH
