// The one 64-bit FNV-1a routine (common/fnv1a.hpp) against the published
// test vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/fnv1a.hpp"

namespace usys {
namespace {

TEST(Fnv1a, KnownAnswers) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, FoldsInPiecesAsInOne) {
  const std::string whole = "transducer";
  EXPECT_EQ(fnv1a("ducer", fnv1a("trans")), fnv1a(whole));
  EXPECT_EQ(fnv1a_bytes(whole.data(), whole.size()), fnv1a(whole));
  EXPECT_EQ(fnv1a_step(kFnv1aOffset, 'a'), fnv1a("a"));
}

}  // namespace
}  // namespace usys
