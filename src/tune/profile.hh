/**
 * @file
 * Host fingerprint for bench snapshots, plus the vestigial
 * activeProfileHash() hook.
 *
 * The bench binaries lead every --json snapshot with the fingerprint
 * of the host they measured (cpu model, core count, SIMD dispatch
 * tier), so scripts/bench_trend.py can tell a regression from a host
 * change.
 *
 * No serving-knob tuning profile exists (README, "Serving defaults"):
 * activeProfileHash() remains only because the repository benchmark
 * (perfbench) still calls it, and it always returns "".
 */

#ifndef HEROSIGN_TUNE_PROFILE_HH
#define HEROSIGN_TUNE_PROFILE_HH

#include <string>

namespace herosign::tune
{

/** What makes a measurement host-specific. */
struct HostFingerprint
{
    std::string cpuModel; ///< /proc/cpuinfo "model name" (or unknown)
    unsigned cores = 0;   ///< std::thread::hardware_concurrency()
    std::string dispatch; ///< "avx512" / "avx2" / "portable"

    /** The current host's fingerprint. */
    static HostFingerprint current();
};

/** Always "": no tuning profile exists to apply to this process. */
std::string activeProfileHash();

} // namespace herosign::tune

#endif // HEROSIGN_TUNE_PROFILE_HH
