#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace xia {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(delim);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

// strtod over a NUL-terminated copy of the (trimmed, non-empty) text;
// accepts only if it consumes all of it.
bool ParseDoubleSlow(std::string_view s, double* out) {
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // Fast path: plain decimal text parses in place, without a copy. Both
  // parsers round correctly, so where from_chars consumes the whole view
  // it yields strtod's value. Everything else — a leading '+', hex,
  // overflow and underflow (from_chars reports an error, strtod returns
  // ±inf or a denormal), NaN payloads — falls through to strtod, which
  // decides acceptance exactly as before.
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && end == s.data() + s.size() && !std::isnan(v)) {
    *out = v;
    return true;
  }
  return ParseDoubleSlow(s, out);
}

bool ParseByteSize(std::string_view s, double* out) {
  static constexpr std::pair<std::string_view, double> kUnits[] = {
      {"KB", 1024.0}, {"kb", 1024.0}, {"MB", 1048576.0}, {"mb", 1048576.0},
      {"GB", 1073741824.0}, {"gb", 1073741824.0}};
  double multiplier = 1;
  for (const auto& [unit, bytes] : kUnits) {
    if (EndsWith(s, unit)) {
      multiplier = bytes;
      s.remove_suffix(unit.size());
      break;
    }
  }
  double v = 0;
  if (!ParseDouble(s, &v) || v < 0) return false;
  *out = v * multiplier;
  return true;
}

size_t NumericTokenLength(std::string_view s) {
  const auto digit = [&](size_t i) {
    return i < s.size() && s[i] >= '0' && s[i] <= '9';
  };
  size_t i = (!s.empty() && (s[0] == '-' || s[0] == '+')) ? 1 : 0;
  const size_t mantissa = i;
  while (digit(i) || (i < s.size() && s[i] == '.')) ++i;
  if (i == mantissa) return 0;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    size_t j = i + 1;
    if (j < s.size() && (s[j] == '-' || s[j] == '+')) ++j;
    if (digit(j)) {
      while (digit(j)) ++j;
      i = j;
    }
  }
  return i;
}

bool LooksNumeric(std::string_view s) {
  double ignored;
  return ParseDouble(s, &ignored);
}

std::string FormatDouble(double v) {
  std::string s = StringPrintf("%.6g", v);
  if (std::isnan(v)) return s;
  for (int digits = 7; digits <= 17; ++digits) {
    if (std::strtod(s.c_str(), nullptr) == v) break;
    s = StringPrintf("%.*g", digits, v);
  }
  return s;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string HumanBytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", bytes, units[u]);
}

}  // namespace xia
