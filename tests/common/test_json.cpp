// json_parse object construction: duplicate-key semantics and the cost of a
// many-key line (a request is untrusted input, so parsing must stay
// O(n log n) in the key count). The number codec: the writer against a
// printf %.17g oracle and a committed table of expected bytes, the reader's
// strict RFC 8259 grammar, and the bit-exact round trip.
#include <gtest/gtest.h>

#include <cfloat>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace usys {
namespace {

TEST(Json, DuplicateKeyKeepsFirstPositionAndLastValue) {
  const auto doc = json_parse(R"({"a":1,"b":2,"a":3,"c":{"x":1,"x":"y"},"b":4,"a":5})");
  ASSERT_TRUE(doc.has_value());
  const auto& m = doc->members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "a");
  EXPECT_EQ(m[0].second.as_number(), 5.0);
  EXPECT_EQ(m[1].first, "b");
  EXPECT_EQ(m[1].second.as_number(), 4.0);
  EXPECT_EQ(m[2].first, "c");
  ASSERT_EQ(m[2].second.members().size(), 1u);
  EXPECT_EQ(m[2].second.get_string("x"), "y");
  // The writer sees the de-duplicated object, as repeated set() calls make.
  JsonValue built = JsonValue::make_object();
  built.set("a", JsonValue::make_number(1));
  built.set("b", JsonValue::make_number(2));
  built.set("a", JsonValue::make_number(3));
  EXPECT_EQ(json_parse(R"({"a":1,"b":2,"a":3})")->dump(), built.dump());
  EXPECT_EQ(built.dump(), R"({"a":3,"b":2})");
}

TEST(Json, EmptyAndSingleKeyObjects) {
  EXPECT_EQ(json_parse("{}")->dump(), "{}");
  EXPECT_EQ(json_parse(R"( { "k" : [1, {"k":2}] } )")->dump(), R"({"k":[1,{"k":2}]})");
  EXPECT_FALSE(json_parse(R"({"a":1,})").has_value());
  EXPECT_FALSE(json_parse(R"({"a" 1})").has_value());
}

TEST(Json, TwoHundredThousandDistinctKeysParseQuickly) {
  constexpr int kKeys = 200'000;
  std::string line = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) line += ',';
    line += "\"k" + std::to_string(i) + "\":" + std::to_string(i);
  }
  line += ",\"k7\":-1}";
  const auto t0 = std::chrono::steady_clock::now();
  const auto doc = json_parse(line);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(doc->members()[7].first, "k7");
  EXPECT_EQ(doc->members()[7].second.as_number(), -1.0);
  EXPECT_EQ(doc->members()[kKeys - 1].second.as_number(), kKeys - 1.0);
  // The old linear de-duplication scan was quadratic: 7.7 s at 50k keys on a
  // 4-vCPU x86 host, so about two minutes at 200k. The sort takes ~0.1 s.
  EXPECT_LT(s, 30.0);
}

// ---------------------------------------------------------------------------
// Number codec
// ---------------------------------------------------------------------------

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof v);
  return bits;
}

/// The format the writer must reproduce byte for byte.
std::string printf_oracle(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string g17(double v) {
  std::string s;
  append_g17(s, v);
  return s;
}

/// Writes `v` with json_append_exact, parses it back and reads it with
/// json_read_exact; checks the bits (any NaN for a NaN).
void expect_exact_round_trip(double v) {
  std::string text;
  json_append_exact(text, v);
  const auto doc = json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  double back = 0.0;
  ASSERT_TRUE(json_read_exact(*doc, back)) << text;
  if (std::isnan(v))
    EXPECT_TRUE(std::isnan(back)) << text;
  else
    EXPECT_EQ(to_bits(back), to_bits(v)) << text;
}

TEST(JsonNumber, WriterMatchesPrintfOracleAndRoundTripsBitExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_MIN - DBL_TRUE_MIN,  // largest subnormal
      1e16, 1e17, -1e16, -1e17, 9007199254740993.0, 0.1, 1.0 / 3.0,
      inf, -inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(20260417);
  for (int i = 0; i < 1'000'000; ++i) values.push_back(from_bits(rng()));
  long non_finite = 0;
  for (const double v : values) {
    // The raw formatter matches printf on every value, non-finite included.
    ASSERT_EQ(g17(v), printf_oracle(v)) << std::hex << to_bits(v);
    std::string json;
    json_append_double(json, v);
    if (std::isfinite(v)) {
      ASSERT_EQ(json, printf_oracle(v));
    } else {
      ASSERT_EQ(json, "null");
      ++non_finite;
    }
    expect_exact_round_trip(v);
    if (::testing::Test::HasFailure()) return;
  }
  // Random bit patterns hit the all-ones exponent 1 time in 2048.
  EXPECT_GT(non_finite, 300);
}

TEST(JsonNumber, NonFiniteValuesMapAsDocumented) {
  const double inf = std::numeric_limits<double>::infinity();
  std::string out;
  json_append_exact(out, std::numeric_limits<double>::quiet_NaN());
  out += ',';
  json_append_exact(out, inf);
  out += ',';
  json_append_exact(out, -inf);
  EXPECT_EQ(out, R"(null,"inf","-inf")");
  out.clear();
  json_append_double(out, inf);
  json_append_double(out, -inf);
  json_append_double(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "nullnullnull");
  EXPECT_EQ(g17(inf), "inf");
  EXPECT_EQ(g17(-inf), "-inf");
  EXPECT_EQ(g17(std::numeric_limits<double>::quiet_NaN()), "nan");
}

// Literal expected bytes: a codec that drifted uniformly (every writer the
// same new way) would still pass the 1-vs-N-thread and shard-merge diffs.
TEST(JsonNumber, CommittedTableOfExpectedBytes) {
  const struct {
    double v;
    const char* text;
  } kTable[] = {
      {0.0, "0"},
      {-0.0, "-0"},
      {1.0, "1"},
      {-1.5, "-1.5"},
      {100.0, "100"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3.0, "0.33333333333333331"},
      {2.0 / 3.0, "0.66666666666666663"},
      {3.141592653589793, "3.1415926535897931"},
      {1e16, "10000000000000000"},
      {1e17, "1e+17"},
      {123456789012345678.0, "1.2345678901234568e+17"},
      {1e21, "1e+21"},
      {1e-5, "1.0000000000000001e-05"},
      {1e-7, "9.9999999999999995e-08"},
      {0.15e-3, "0.00014999999999999999"},
      {8.8542e-12, "8.8542e-12"},
      {2.5e-6, "2.5000000000000002e-06"},
      {6.02214076e23, "6.0221407599999999e+23"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {DBL_MIN, "2.2250738585072014e-308"},
      {-2.2250738585072009e-308, "-2.2250738585072009e-308"},
      {DBL_TRUE_MIN, "4.9406564584124654e-324"},
  };
  for (const auto& row : kTable) {
    std::string out;
    json_append_double(out, row.v);
    EXPECT_EQ(out, row.text);
    const auto doc = json_parse(row.text);
    ASSERT_TRUE(doc.has_value()) << row.text;
    EXPECT_EQ(to_bits(doc->as_number()), to_bits(row.v)) << row.text;
  }
  std::string ints;
  for (const long v : {0L, 7L, -1L, 1000L, 9007199254740992L, LONG_MIN, LONG_MAX}) {
    json_append_integer(ints, v);
    ints += ' ';
  }
  EXPECT_EQ(ints,
            "0 7 -1 1000 9007199254740992 -9223372036854775808 9223372036854775807 ");
}

TEST(JsonNumber, ParserTakesOnlyTheRfc8259Grammar) {
  // strtod reads a number from each of these (0x10 as 16); none is JSON.
  for (const char* bad : {"0x10", "+1", ".5", "1.", "01", "00", "1.e3", "-", "-01", "1e",
                          "1e+", "1E-", "--1", "0.5.1", "inf", "-inf", "nan", "Infinity",
                          "[01]", R"({"a":+1})", "[1.]"}) {
    EXPECT_FALSE(json_parse(bad).has_value()) << bad;
  }
  // Outside double's range: rejected, not turned into inf or 0.
  for (const char* out_of_range : {"1e999", "-1e999", "1e309", "1e-400", "-1e-400"}) {
    EXPECT_FALSE(json_parse(out_of_range).has_value()) << out_of_range;
  }
  const auto minus_zero = json_parse("-0");
  ASSERT_TRUE(minus_zero.has_value());
  EXPECT_EQ(minus_zero->as_number(), 0.0);
  EXPECT_TRUE(std::signbit(minus_zero->as_number()));
  EXPECT_EQ(json_parse("1e5")->as_number(), 100000.0);
  EXPECT_EQ(json_parse("1E+5")->as_number(), 100000.0);
  EXPECT_EQ(json_parse("-0.0e-0")->as_number(), 0.0);
  EXPECT_EQ(json_parse("0")->as_number(), 0.0);
  EXPECT_EQ(json_parse("10.25e-2")->as_number(), 0.1025);
  EXPECT_EQ(json_parse("[0,-0.5,1e-3]")->dump(), "[0,-0.5,0.001]");
}

}  // namespace
}  // namespace usys
