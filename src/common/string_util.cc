#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace mesa {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// Clinger's fast path: a plain decimal -?[0-9]*(\.[0-9]*)? with at least one
// digit, at most 15 significant digits and at most 22 fraction digits is
// m / 10^f where both m and 10^f are exact doubles, so one IEEE division
// rounds it exactly as strtod does. Any other spelling returns false.
bool FastDecimal(std::string_view s, double* out) {
  const bool negative = !s.empty() && s[0] == '-';
  uint64_t mantissa = 0;
  int significant = 0, fraction = 0, digits = 0;
  bool dot = false;
  for (size_t i = negative ? 1 : 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c >= '0' && c <= '9') {
      ++digits;
      fraction += dot;
      if (mantissa == 0 && c == '0') continue;  // a leading zero
      if (++significant > 15) return false;
      mantissa = mantissa * 10 + static_cast<uint64_t>(c - '0');
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  if (digits == 0 || fraction > 22) return false;
  const double v = static_cast<double>(mantissa) / kPow10[fraction];
  *out = negative ? -v : v;
  return true;
}

// False only when strtod rejects `s` for certain: it starts with neither
// whitespace, a sign, a digit, a dot, "inf" nor "nan" (in any case).
bool MaybeNumber(std::string_view s) {
  if (s.empty()) return false;
  const char c = s[0];
  if (IsSpace(c) || c == '+' || c == '-' || c == '.' ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  const std::string_view head = s.substr(0, 3);
  return EqualsIgnoreCase(head, "inf") || EqualsIgnoreCase(head, "nan");
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  if (FastDecimal(s, out)) return true;
  if (!MaybeNumber(s)) return false;
  s = StripWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  // The usual spelling, -?[0-9]+, parses (or overflows) exactly through
  // std::from_chars; strtoll is left only a '+' sign or whitespace to
  // accept beyond it.
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, *out);
  if (ptr == last) return ec == std::errc();
  if (s[0] != '+' && !IsSpace(s[0]) && !IsSpace(s.back())) return false;
  s = StripWhitespace(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::string NormalizeEntityName(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_sep = false;
  for (char raw : s) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(std::tolower(c));
    } else {
      pending_sep = true;
    }
  }
  return out;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<size_t> prev(m + 1);
  std::vector<size_t> cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

}  // namespace mesa
