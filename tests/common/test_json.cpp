// json_parse object construction: duplicate-key semantics and the cost of a
// many-key line (a request is untrusted input, so parsing must stay
// O(n log n) in the key count).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

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

}  // namespace
}  // namespace usys
