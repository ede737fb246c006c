#ifndef STREAMASP_UTIL_STRINGS_H_
#define STREAMASP_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace streamasp {

/// Splits `input` on `delimiter`, returning all pieces (including empty
/// ones, so Split(",a,", ',') has three elements).
std::vector<std::string> StrSplit(std::string_view input, char delimiter);

/// Joins `pieces` with `separator` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view separator);

/// Removes leading and trailing ASCII whitespace (space, \t, \n, \v, \f,
/// \r; never a byte >= 0x80).
std::string_view StripWhitespace(std::string_view input);

/// True iff `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer. Returns false (leaving *out untouched)
/// on empty input, non-digit characters, or overflow.
bool ParseInt64(std::string_view s, int64_t* out);

}  // namespace streamasp

#endif  // STREAMASP_UTIL_STRINGS_H_
