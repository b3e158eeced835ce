/**
 * @file
 * WOTS+ one-time signatures (spec §3). Each of the len chains is an
 * independent hash chain — the property HERO-Sign's WOTS+_Sign kernel
 * exploits with chain-level parallelism (paper §II-A1).
 */

#ifndef HEROSIGN_SPHINCS_WOTS_HH
#define HEROSIGN_SPHINCS_WOTS_HH

#include "common/bytes.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"

namespace herosign::sphincs
{

/**
 * Compute the base-w chain lengths for a message: len1 message digits
 * followed by len2 checksum digits.
 * @param lengths output array of params.wotsLen() entries, each in
 *        [0, w-1]
 * @param msg the n-byte message (a Merkle root)
 */
void chainLengths(uint32_t *lengths, const Params &params,
                  const uint8_t *msg);

/**
 * Advance one WOTS+ hash chain: the scalar reference walk (one thashF
 * per step) that the tests and the GPU kernel model check the
 * batched chain dispatcher against.
 * @param out n bytes; may alias @p in
 * @param in n-byte chain value at position @p start
 * @param start current position in the chain
 * @param steps how many F applications to perform
 * @param adrs WOTS_HASH address with layer/tree/keypair/chain set;
 *        the hash position field is managed by this function
 */
void genChain(uint8_t *out, const uint8_t *in, uint32_t start,
              uint32_t steps, const Context &ctx, Address &adrs);

/**
 * One WOTS+ keypair's len chains for advanceChains(). Chain i steps
 * its n-byte value at vals + i * n in place from position start[i]
 * to end[i] (start[i] <= end[i]); the step at position p hashes under
 * adrs with chain i and hash index p. When capOut is set, chain i
 * also copies its value at position capPos[i] to capOut + i * n if
 * start[i] <= capPos[i] <= end[i] — how a signing leaf's wotsSign()
 * bytes fall out of its pk-generation walk.
 */
struct WotsChainSet
{
    Address adrs; ///< layer/tree/type/keypair; chain and hash per step
    uint8_t *vals = nullptr;
    const uint32_t *start = nullptr;
    const uint32_t *end = nullptr;
    uint8_t *capOut = nullptr;
    const uint32_t *capPos = nullptr;
};

/**
 * The one WOTS+ chain dispatcher behind every batched chain walk
 * (wotsLeafBatch, wotsPkFromSigXN, wotsSign, wotsPkFromSig). It sorts
 * the live chains of @p count sets by start position and packs them
 * into fused chain-kernel calls of the dispatched width — every step
 * of up to 16 chains runs in vector registers
 * (sha256ChainF16SeededAvx512 / sha256ChainF8SeededAvx2); a ragged
 * tail of two or more chains runs as one padded call of the narrowest
 * covering tier and a lone chain runs scalar. Forced-scalar dispatch,
 * quarantine and value lengths the kernels do not cover run the same
 * packing on the portable walk, one sha256CompressNative per step.
 * Values, captures and Sha256::compressionCount() (exactly the sum of
 * end - start over all chains) are identical on every tier, and to
 * genChain() per chain.
 * @param count 0..maxHashLanes sets
 */
void advanceChains(const WotsChainSet sets[], unsigned count,
                   const Context &ctx);

/**
 * Derive the secret chain start value for chain @p chain.
 * @param adrs a WOTS_PRF address with layer/tree/keypair set
 */
void wotsChainSk(uint8_t *out, const Context &ctx, Address &adrs,
                 uint32_t chain);

/**
 * Compute the WOTS+ compressed public key (the hypertree leaf) for
 * the keypair selected by @p leaf_adrs.
 * @param pk_out n bytes
 * @param leaf_adrs WOTS_HASH-style address with layer/tree/keypair set
 */
void wotsPkGen(uint8_t *pk_out, const Context &ctx,
               const Address &leaf_adrs);

/**
 * One WOTS+ leaf of pooled hash work: generate the compressed public
 * key for keypair @p keypair of subtree (layer, tree), optionally
 * capturing the signature chain values on the way. The leaves of one
 * wotsLeafBatch() call may come from different layers, trees and
 * signatures — each request carries its own addressing — which is
 * what lets merkleSignXN() keep the hash lanes full across several
 * signatures on parameter shapes whose subtrees are narrower than
 * the lane width.
 *
 * When @p sigOut is set, @p lengths must point at the wotsLen()
 * chain-length digits of the message this keypair signs; sigOut[i]
 * receives the chain-i value at position lengths[i] — exactly the
 * bytes wotsSign() produces, captured for free while the chains run
 * to w-1 for the leaf, so the signing leaf costs no separate
 * chain-walk.
 */
struct WotsLeafReq
{
    uint32_t layer = 0;
    uint64_t tree = 0;
    uint32_t keypair = 0;
    uint8_t *leafOut = nullptr;      ///< n bytes: compressed pk
    uint8_t *sigOut = nullptr;       ///< optional, wotsSigBytes()
    const uint32_t *lengths = nullptr; ///< wotsLen() capture positions
};

/**
 * Generate @p count WOTS+ leaves described by @p reqs with every hash
 * pooled across requests, maxHashLanes leaves per internal
 * sub-batch — the hot path of signing (~90% of compressions). The
 * chain-start PRFs (one F-shaped step under a WOTS_PRF address) and
 * the full w-1 step walks both go through advanceChains(), so each
 * chain stays in vector registers for all its steps; the final T_len
 * compressions run one lane per leaf. Leaf and captured signature
 * bytes are identical to per-leaf wotsPkGen()/wotsSign() calls at
 * every width. @p count is unbounded.
 */
void wotsLeafBatch(const Context &ctx, const WotsLeafReq reqs[],
                   unsigned count);

/**
 * Sign an n-byte message (a root) with the selected WOTS+ keypair.
 * @param sig out, wotsSigBytes() = len * n
 */
void wotsSign(uint8_t *sig, const uint8_t *msg, const Context &ctx,
              const Address &leaf_adrs);

/**
 * Recompute the compressed public key from a signature (verification
 * direction). The library verifies through wotsPkFromSigXN(); this
 * is the reference the tests check it with.
 */
void wotsPkFromSig(uint8_t *pk_out, const uint8_t *sig,
                   const uint8_t *msg, const Context &ctx,
                   const Address &leaf_adrs);

/**
 * Recompute up to maxHashLanes compressed public keys from signatures
 * in one pass — the hot loop of batched verification. All
 * count * len ragged chains go through advanceChains(), sorted by
 * start position so the lanes of each fused chain call retire
 * together; the ragged tail falls back to a padded narrower call or
 * a scalar lone chain. The final T_len compressions run one per
 * lane. The signatures may sit in
 * different hypertree positions (each lane has its own address) but
 * must share one context / parameter set. Byte-identical to count
 * wotsPkFromSig calls at every width.
 *
 * @param pk_out count pointers to n-byte outputs
 * @param sig count pointers to wotsSigBytes() signatures
 * @param msg count pointers to the n-byte signed roots
 * @param leaf_adrs count addresses with layer/tree/keypair set
 * @param count active lanes, 1..maxHashLanes
 */
void wotsPkFromSigXN(uint8_t *const pk_out[], const uint8_t *const sig[],
                     const uint8_t *const msg[], const Context &ctx,
                     const Address leaf_adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_WOTS_HH
