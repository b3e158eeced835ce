/**
 * @file
 * The vestigial activeProfileHash() hook.
 *
 * No serving-knob tuning profile exists (README, "Serving defaults"):
 * activeProfileHash() remains only because the repository benchmark
 * (perfbench) still records it in its run metadata, and it always
 * returns "".
 */

#ifndef HEROSIGN_TUNE_PROFILE_HH
#define HEROSIGN_TUNE_PROFILE_HH

#include <string>

namespace herosign::tune
{

/** Always "": no tuning profile exists to apply to this process. */
inline std::string
activeProfileHash()
{
    return {};
}

} // namespace herosign::tune

#endif // HEROSIGN_TUNE_PROFILE_HH
