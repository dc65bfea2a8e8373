#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <limits>

#include "common/strings.hpp"

namespace usys {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  const auto parts = split("a b\tc", " \t");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split("", " ").empty());
  EXPECT_EQ(split("  a  ", " ").size(), 1u);
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(iequals("PULSE", "pulse"));
  EXPECT_FALSE(iequals("puls", "pulse"));
}

TEST(Strings, SpiceNumbersPlain) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(*parse_spice_number("-1.5e-3"), -1.5e-3);
}

TEST(Strings, SpiceNumberSuffixes) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("1k"), 1e3);
  EXPECT_DOUBLE_EQ(*parse_spice_number("4.7MEG"), 4.7e6);
  EXPECT_DOUBLE_EQ(*parse_spice_number("0.15m"), 0.15e-3);
  EXPECT_DOUBLE_EQ(*parse_spice_number("10u"), 1e-5);
  EXPECT_DOUBLE_EQ(*parse_spice_number("5p"), 5e-12);
  EXPECT_DOUBLE_EQ(*parse_spice_number("2n"), 2e-9);
  EXPECT_DOUBLE_EQ(*parse_spice_number("3f"), 3e-15);
  EXPECT_DOUBLE_EQ(*parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(*parse_spice_number("1t"), 1e12);
}

TEST(Strings, SpiceNumberUnitLetters) {
  EXPECT_DOUBLE_EQ(*parse_spice_number("10V"), 10.0);
  EXPECT_DOUBLE_EQ(*parse_spice_number("10uF"), 1e-5);
}

TEST(Strings, SpiceNumberRejectsGarbage) {
  EXPECT_FALSE(parse_spice_number("abc").has_value());
  EXPECT_FALSE(parse_spice_number("").has_value());
  EXPECT_FALSE(parse_spice_number("1.2.3x!").has_value());
}

// The netlist number grammar: decimal only, read by from_chars.
TEST(Strings, SpiceNumberAcceptRejectTable) {
  const struct {
    const char* text;
    double value;
  } kAccepted[] = {
      {"+5", 5.0},        {".5", 0.5},         {"5.", 5.0},          {"-.5", -0.5},
      {"+1.5e3", 1500.0}, {"1k", 1e3},         {"-2.5meg", -2.5e6},  {"1e-3u", 1e-9},
      {"10V", 10.0},      {"+10uF", 1e-5},     {"0", 0.0},           {"1e", 1.0},
      {" 42 ", 42.0},     {"1e-300", 1e-300},
  };
  for (const auto& row : kAccepted) {
    const auto v = parse_spice_number(row.text);
    ASSERT_TRUE(v.has_value()) << row.text;
    EXPECT_DOUBLE_EQ(*v, row.value) << row.text;
  }
  for (const char* bad : {"0x10", "0X10", "-0x10", "+0x10", "0x1p-3", "0xff", "inf", "-inf",
                          "INF", "infinity", "nan", "1e999", "-1e999", "1e999k", "1e-400",
                          "+-5", "++5", "+", "-", "+ 5"}) {
    EXPECT_FALSE(parse_spice_number(bad).has_value()) << bad;
  }
}

TEST(Strings, ParseBoundedTakesWholeDecimalsInRange) {
  EXPECT_EQ(parse_bounded("42", 0, 100), 42);
  EXPECT_EQ(parse_bounded("007", 0, 100), 7);
  EXPECT_EQ(parse_bounded("-3", -5, 5), -3);
  EXPECT_EQ(parse_bounded("0", 0, 0), 0);
  EXPECT_EQ(parse_bounded("2147483647", 0, INT_MAX), INT_MAX);
  EXPECT_EQ(parse_bounded<std::uint64_t>("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parse_bounded("-9223372036854775808", LONG_MIN, LONG_MAX), LONG_MIN);
  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "1e3", "1.0", "1.", "2x", "abc",
                          "--1", "-", "nan", "inf", "101", "-1", "2147483648",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_bounded(bad, 0, 100), std::nullopt);
  }
  EXPECT_EQ(parse_bounded<std::uint64_t>("18446744073709551616", 0, UINT64_MAX), std::nullopt);
  EXPECT_EQ(parse_bounded<std::uint64_t>("-1", 0, UINT64_MAX), std::nullopt);

  constexpr double kMax = std::numeric_limits<double>::max();
  EXPECT_EQ(parse_bounded("1e3", 0.0, kMax), 1e3);
  EXPECT_EQ(parse_bounded("0.5", 0.0, 1.0), 0.5);
  EXPECT_EQ(parse_bounded("-0", 0.0, 1.0), 0.0);
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "infinity", "1e999", "0x10", "+1",
                          "1.5x", "", " 1", "-1", "1e-999x"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_bounded(bad, 0.0, kMax), std::nullopt);
  }
  EXPECT_EQ(parse_bounded("1.5", 0.0, 1.0), std::nullopt);
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(str_format("%.3f", 1.5), "1.500");
}

}  // namespace
}  // namespace usys
