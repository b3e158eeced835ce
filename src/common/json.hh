/**
 * @file
 * The one JSON string writer shared by the stats exporters and the
 * bench JSON records.
 */

#ifndef HEROSIGN_COMMON_JSON_HH
#define HEROSIGN_COMMON_JSON_HH

#include <string>
#include <string_view>

namespace herosign
{

/**
 * Escape @p s for use inside a JSON string literal (no surrounding
 * quotes). Emits only \", \\, \n, \t and \u00XX for every other
 * control byte, a subset every JSON reader accepts; bytes >= 0x20 pass
 * through unchanged.
 */
std::string jsonEscape(std::string_view s);

/** jsonEscape(@p s) wrapped in double quotes. */
std::string jsonQuote(std::string_view s);

} // namespace herosign

#endif // HEROSIGN_COMMON_JSON_HH
