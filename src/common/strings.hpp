// String utilities shared by the netlist and HDL-AT front ends.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace usys {

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on any of the characters in `delims`, dropping empty pieces.
std::vector<std::string_view> split(std::string_view s, std::string_view delims = " \t");

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// Case-insensitive comparison of ASCII strings.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Parses a SPICE-style number with engineering suffix:
///   1k = 1e3, 4.7meg = 4.7e6, 10u = 1e-5, 0.15m = 1.5e-4, 5p = 5e-12 ...
/// Recognized suffixes (case-insensitive): t g meg k m u n p f.
/// Trailing unit letters after the suffix are ignored (e.g. "10uF").
/// The number is decimal, read by std::from_chars: an optional sign ('+'
/// or '-'), digits with an optional '.' on either side ("5.", ".5") and an
/// optional exponent. Returns nullopt if the leading characters do not form
/// one, for hex ("0x10"), for inf/nan, and for a value outside double's
/// range ("1e999", "1e-400").
std::optional<double> parse_spice_number(std::string_view s) noexcept;

/// The whole of `s` as a decimal number in the inclusive range [lo, hi],
/// read by std::from_chars: for an integer T, ASCII digits with a leading
/// '-' only where T is signed; for double, from_chars' general grammar.
/// No '+', whitespace, hex prefix or trailing characters, and for an integer
/// no fraction or exponent ("1e3"). Returns nullopt for anything else, for
/// a value outside [lo, hi]: overflow, NaN, and inf unless a bound is
/// infinite.
template <typename T>
std::optional<T> parse_bounded(std::string_view s, T lo, T hi) noexcept {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return std::nullopt;
  return v;
}

/// printf-style formatting into std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace usys
