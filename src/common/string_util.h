#ifndef SILOFUSE_COMMON_STRING_UTIL_H_
#define SILOFUSE_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace silofuse {

/// Splits `text` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// Fixed-point formatting with `digits` decimals (e.g. 3.14159, 2 -> "3.14").
std::string FormatDouble(double value, int digits);

/// True if `text` parses fully as a finite double; stores it in *value.
bool ParseDouble(std::string_view text, double* value);

/// The one on/off vocabulary of the SILOFUSE_* switches, ASCII case-
/// insensitive: "1", "on", "true", "yes" -> true; "0", "off", "false", "no"
/// -> false; anything else (including "") -> nullopt.
std::optional<bool> ParseFlag(std::string_view text);

/// ParseFlag of environment variable `name`, or `fallback` when it is unset
/// or not a flag word.
bool EnvFlag(const char* name, bool fallback);

}  // namespace silofuse

#endif  // SILOFUSE_COMMON_STRING_UTIL_H_
