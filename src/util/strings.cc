#include "util/strings.h"

#include <cstdint>
#include <limits>

namespace streamasp {

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> pieces;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delimiter) {
      pieces.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += separator;
    out += pieces[i];
  }
  return out;
}

namespace {

/// std::isspace in the "C" locale (space, \t, \n, \v, \f, \r) without
/// the library call: the wire parser strips every pushed line with it.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && IsAsciiSpace(input[begin])) ++begin;
  while (end > begin && IsAsciiSpace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  bool negative = false;
  size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    negative = (s[0] == '-');
    i = 1;
    if (s.size() == 1) return false;
  }
  // Accumulate negatively: the magnitude of INT64_MIN exceeds INT64_MAX, so
  // the negative range can hold every valid input without overflow.
  int64_t value = 0;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return false;
    const int digit = c - '0';
    if (value < (kMin + digit) / 10) return false;  // Would overflow.
    value = value * 10 - digit;
  }
  if (!negative) {
    if (value == kMin) return false;  // |INT64_MIN| is not representable.
    value = -value;
  }
  *out = value;
  return true;
}

}  // namespace streamasp
