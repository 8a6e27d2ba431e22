// Small string helpers shared across XIA modules.

#ifndef XIA_UTIL_STRING_UTIL_H_
#define XIA_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace xia {

/// Splits `input` on `delim`, keeping empty tokens.
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a double after trimming ASCII whitespace, accepting what strtod
/// accepts (signs, hex, inf, nan, out-of-range values as ±inf or a
/// denormal); returns false on empty text or any trailing garbage.
bool ParseDouble(std::string_view s, double* out);

/// Parses a non-negative byte count: a number as ParseDouble reads it,
/// optionally followed by KB, MB or GB (or kb, mb, gb; powers of 1024).
/// Returns false on an empty number, a negative value or other text.
bool ParseByteSize(std::string_view s, double* out);

/// Formats `v` with the fewest significant digits, at least 6, that
/// read back through ParseDouble as exactly `v` (NaN prints as "%.6g"
/// does). Values exact in 6 digits keep their "%.6g" text.
std::string FormatDouble(double v);

/// Length of the numeric-literal token at the start of `s`: an optional
/// sign, a run of digits and dots, then an optional exponent ('e' or 'E',
/// an optional sign, at least one digit). This is every spelling
/// FormatDouble gives a finite value. Returns 0 when there is no digit or
/// dot after the sign. The token is not validated: ParseDouble decides
/// whether it is a number.
size_t NumericTokenLength(std::string_view s);

/// Returns true if the whole string parses as a (possibly signed,
/// possibly fractional) numeric literal.
bool LooksNumeric(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Human-readable byte count, e.g. "12.3 MB".
std::string HumanBytes(double bytes);

}  // namespace xia

#endif  // XIA_UTIL_STRING_UTIL_H_
