#ifndef MESA_COMMON_STRING_UTIL_H_
#define MESA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace mesa {

/// Splits `s` on `delim`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive equality over ASCII.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses a double as strtod does after stripping surrounding whitespace
/// (bit-exact, including hex, inf and nan); returns false on any trailing
/// garbage, empty input, overflow or underflow. Short plain decimals take
/// an exact fast path that skips strtod.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer as strtoll (base 10) does after
/// stripping surrounding whitespace; returns false on overflow or garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Normalises an entity label for matching: lower-case, collapse runs of
/// whitespace/punctuation to single underscores, strip diacritics-free
/// non-alphanumerics. "Russian Federation" -> "russian_federation".
std::string NormalizeEntityName(std::string_view s);

/// Levenshtein edit distance (used by the NED entity linker for fuzzy
/// fallback matching).
size_t EditDistance(std::string_view a, std::string_view b);

}  // namespace mesa

#endif  // MESA_COMMON_STRING_UTIL_H_
