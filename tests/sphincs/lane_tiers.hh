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
    LaneBackend ceiling;
};

inline constexpr LaneTier laneTiers[] = {
    {"forced-scalar", LaneBackend::Scalar},
    {"width-8", LaneBackend::Avx2},
    {"widest", LaneBackend::Avx512},
};

/** Pin @p tier for a scope and lift the ceiling on exit. */
struct ScopedTier
{
    explicit ScopedTier(const LaneTier &tier)
    {
        sha256LanesSetCeiling(tier.ceiling);
    }
    ~ScopedTier() { sha256LanesSetCeiling(LaneBackend::Avx512); }
};

} // namespace herosign::sphincs::test

#endif // HEROSIGN_TESTS_SPHINCS_LANE_TIERS_HH
