#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace usys {

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::optional<double> parse_spice_number(std::string_view s) noexcept {
  s = trim(s);
  // from_chars takes a leading '-' only; an explicit '+' is skipped here,
  // but not in front of another sign ("+-5").
  if (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (!s.empty() && s.front() == '-') return std::nullopt;
  }
  // Hex is not a SPICE number: from_chars would read the "0" of "0x10" and
  // leave "x10" to pass as unit letters.
  const std::string_view mantissa = s.substr(!s.empty() && s.front() == '-' ? 1 : 0);
  if (mantissa.size() >= 2 && mantissa[0] == '0' && (mantissa[1] == 'x' || mantissa[1] == 'X'))
    return std::nullopt;
  double base = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), base);
  // Out of range ("1e999", "1e-400") and the inf/nan spellings from_chars
  // reads are rejected: a netlist value that is not a finite number is a
  // typo, not a quantity.
  if (ec != std::errc() || !std::isfinite(base)) return std::nullopt;
  const std::string_view rest = trim(s.substr(static_cast<std::size_t>(end - s.data())));
  if (rest.empty()) return base;
  // "meg" must be matched before "m".
  struct Suffix {
    std::string_view text;
    double scale;
  };
  static constexpr Suffix kSuffixes[] = {
      {"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3}, {"m", 1e-3},
      {"u", 1e-6},  {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
  };
  for (const auto& sfx : kSuffixes) {
    if (iequals(rest.substr(0, sfx.text.size()), sfx.text)) return base * sfx.scale;
  }
  // Unit letters only (e.g. "10V"): accept as plain number.
  for (char c : rest) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return std::nullopt;
  }
  return base;
}

std::string str_format(const char* fmt, ...) {
  va_list args1;
  va_start(args1, fmt);
  va_list args2;
  va_copy(args2, args1);
  const int len = std::vsnprintf(nullptr, 0, fmt, args1);
  va_end(args1);
  std::string out(static_cast<std::size_t>(len), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

}  // namespace usys
