/**
 * @file
 * The three lane tiers the fused-kernel tests pin in turn: forced
 * scalar, the 8-lane path and the widest the host dispatches.
 */

#ifndef HEROSIGN_TESTS_SPHINCS_LANE_TIERS_HH
#define HEROSIGN_TESTS_SPHINCS_LANE_TIERS_HH

#include "hash/sha256xN.hh"

namespace herosign::sphincs::test
{

/** One lane tier, pinned for a scope by ScopedTier. */
struct LaneTier
{
    const char *name;
    bool scalar;
    bool noAvx512;
};

inline constexpr LaneTier laneTiers[] = {
    {"forced-scalar", true, false},
    {"width-8", false, true},
    {"widest", false, false},
};

/** Pin @p tier for a scope and release it on exit. */
struct ScopedTier
{
    explicit ScopedTier(const LaneTier &tier)
    {
        sha256LanesForceScalar(tier.scalar);
        sha256LanesDisableAvx512(tier.noAvx512);
    }
    ~ScopedTier()
    {
        sha256LanesForceScalar(false);
        sha256LanesDisableAvx512(false);
    }
};

} // namespace herosign::sphincs::test

#endif // HEROSIGN_TESTS_SPHINCS_LANE_TIERS_HH
