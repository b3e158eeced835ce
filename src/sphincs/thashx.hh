/**
 * @file
 * Lane-batched SPHINCS+ tweakable hashes: up to maxHashLanes
 * independent T/F/PRF calls advanced in lockstep on the width-generic
 * SHA-256 lane engine (hash/sha256xN.hh). This is the CPU analogue of
 * HERO-Sign's batched GPU hash calls (paper §III): FORS leaves,
 * Merkle node layers and the WOTS+ public-key compressions are all
 * independent calls of one shape, so they fill SIMD lanes exactly.
 * WOTS+ chain walks take the fused chain dispatcher instead
 * (advanceChains in sphincs/wots.hh).
 *
 * Every function takes a lane count `count <= maxHashLanes` and is
 * width-agnostic: the batch runs as full SIMD calls of the dispatched
 * width, then a padded tail — the last two or more lanes as one x8 or
 * x16 call whose ghost lanes are discarded (laneCallWidth in
 * hash/sha256xN.hh) — and a lone last lane runs scalar. Digests AND
 * Sha256::compressionCount() accounting (real lanes only) stay
 * bit-for-bit identical to the scalar path for any count on any
 * backend. Forced-scalar dispatch (ScopedScalarLanes, quarantine)
 * runs every lane scalar, padding included. Callers that choose their
 * own batch size should still fill hashLaneWidth() lanes per pass: a
 * padded call costs a full one.
 */

#ifndef HEROSIGN_SPHINCS_THASHX_HH
#define HEROSIGN_SPHINCS_THASHX_HH

#include "common/bytes.hh"
#include "hash/sha256xN.hh"
#include "sphincs/address.hh"
#include "sphincs/context.hh"
#include "sphincs/thash.hh"

namespace herosign::sphincs
{

/** Hard upper bound on the lane count of one batched hash call. */
constexpr unsigned maxHashLanes =
    static_cast<unsigned>(maxSha256Lanes);

/**
 * Lane width of the dispatched backend: 16 with AVX-512 active, 8
 * otherwise (AVX2 and portable). The natural batch size for the hot
 * loops — a full batch of this width runs entirely on the widest
 * kernel.
 */
inline unsigned
hashLaneWidth()
{
    return laneDispatch().width;
}

/**
 * Batched generic tweakable hash: out[l] = T(adrs[l], in[l]) for
 * l < count, with a uniform input length.
 * @param out count pointers to n-byte outputs
 * @param adrs count hash addresses
 * @param in count pointers to in_len-byte inputs
 * @param in_len input length shared by all lanes (a multiple of n for
 *        T_l calls, or the PRF message length)
 * @param count active lanes, 1..maxHashLanes
 *
 * out[l] may alias in[l] (a call may hash in place).
 */
void thashX(uint8_t *const out[], const Context &ctx,
            const Address adrs[], const uint8_t *const in[],
            size_t in_len, unsigned count);

/** Batched F: out[l] = F(adrs[l], in[l]), single n-byte inputs. */
inline void
thashFX(uint8_t *const out[], const Context &ctx, const Address adrs[],
        const uint8_t *const in[], unsigned count)
{
    thashX(out, ctx, adrs, in, ctx.params().n, count);
}

/** Batched PRF: out[l] = PRF(pk_seed, sk_seed, adrs[l]). */
void prfAddrX(uint8_t *const out[], const Context &ctx,
              const Address adrs[], unsigned count);

} // namespace herosign::sphincs

#endif // HEROSIGN_SPHINCS_THASHX_HH
