#ifndef KANON_UTIL_STRING_UTIL_H_
#define KANON_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Small string helpers shared by the CSV engine, CLI parser and report
/// printers.

namespace kanon {

/// Splits `text` on `sep`. Adjacent separators yield empty fields;
/// splitting the empty string yields one empty field.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Left/right pads `text` with spaces to at least `width` characters.
std::string PadLeft(std::string_view text, size_t width);
std::string PadRight(std::string_view text, size_t width);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Parses a base-10 signed integer; returns false on any trailing junk,
/// overflow, or empty input.
bool ParseInt(std::string_view text, long long* out);

/// Parses a base-10 unsigned 64-bit integer (an optional leading '+',
/// as ParseInt takes); returns false on a minus sign, trailing junk,
/// overflow, or empty input.
bool ParseUint(std::string_view text, uint64_t* out);

/// Parses a double; returns false on trailing junk or empty input.
bool ParseDouble(std::string_view text, double* out);

}  // namespace kanon

#endif  // KANON_UTIL_STRING_UTIL_H_
