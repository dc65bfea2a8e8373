// Fault-injection harness semantics (common/fault_inject.hpp). The arming
// table and should_fail() are plain functions compiled into every build, so
// everything here runs unconditionally; only the USYS_FAULT_POINT macro (and
// the production sites behind it) depends on the USYS_FAULT_INJECT build.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_inject.hpp"

namespace usys::fault {
namespace {

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { disarm_all(); }
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultInjectTest, DefaultArmFiresOnFirstHitOnly) {
  arm("t.first");
  EXPECT_TRUE(should_fail("t.first"));
  EXPECT_FALSE(should_fail("t.first"));
  EXPECT_EQ(hits("t.first"), 2);
  EXPECT_EQ(fired("t.first"), 1);
}

TEST_F(FaultInjectTest, NthCountWindow) {
  arm("t.win", 3, 2);  // fire on hits 3 and 4
  const std::vector<bool> expect = {false, false, true, true, false, false};
  for (const bool want : expect) EXPECT_EQ(should_fail("t.win"), want);
  EXPECT_EQ(hits("t.win"), 6);
  EXPECT_EQ(fired("t.win"), 2);
}

TEST_F(FaultInjectTest, NegativeCountMeansForever) {
  arm("t.forever", 2, -1);
  EXPECT_FALSE(should_fail("t.forever"));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(should_fail("t.forever"));
  EXPECT_EQ(fired("t.forever"), 10);
}

TEST_F(FaultInjectTest, RearmReplacesTriggerAndResetsCounters) {
  arm("t.rearm", 1, -1);
  EXPECT_TRUE(should_fail("t.rearm"));
  arm("t.rearm", 2, 1);
  EXPECT_EQ(hits("t.rearm"), 0);
  EXPECT_FALSE(should_fail("t.rearm"));  // hit 1 of the new trigger
  EXPECT_TRUE(should_fail("t.rearm"));   // hit 2 fires
}

TEST_F(FaultInjectTest, UnarmedSitesNeverFireOrCount) {
  EXPECT_FALSE(should_fail("t.never"));
  EXPECT_EQ(hits("t.never"), 0);
  EXPECT_EQ(fired("t.never"), 0);
}

TEST_F(FaultInjectTest, DisarmStopsFiring) {
  arm("t.off", 1, -1);
  EXPECT_TRUE(should_fail("t.off"));
  disarm("t.off");
  EXPECT_FALSE(should_fail("t.off"));
  EXPECT_EQ(hits("t.off"), 0);  // counters dropped with the site
}

TEST_F(FaultInjectTest, ArmedSitesAreListedSorted) {
  arm("t.b");
  arm("t.a");
  arm_random("t.c", 0.5, 1);
  const std::vector<std::string> want = {"t.a", "t.b", "t.c"};
  EXPECT_EQ(armed_sites(), want);
  disarm_all();
  EXPECT_TRUE(armed_sites().empty());
}

TEST_F(FaultInjectTest, RandomModeIsDeterministicPerSeed) {
  arm_random("t.rand", 0.5, 42);
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) first.push_back(should_fail("t.rand"));
  // Re-arming with the same seed replays the identical pattern.
  arm_random("t.rand", 0.5, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(should_fail("t.rand"), first[i]) << "hit " << i;
  // p = 0.5 over 100 hits: all-true or all-false would mean a broken hash.
  const long n_fired = fired("t.rand");
  EXPECT_GT(n_fired, 0);
  EXPECT_LT(n_fired, 100);
  // A different seed gives a different pattern somewhere in 100 hits.
  arm_random("t.rand", 0.5, 43);
  std::vector<bool> other;
  for (int i = 0; i < 100; ++i) other.push_back(should_fail("t.rand"));
  EXPECT_NE(first, other);
}

TEST_F(FaultInjectTest, RandomModeProbabilityExtremes) {
  arm_random("t.p0", 0.0, 7);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(should_fail("t.p0"));
  arm_random("t.p1", 1.0, 7);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(should_fail("t.p1"));
}

TEST_F(FaultInjectTest, SpecParsesCountAndRandomEntries) {
  std::string err;
  ASSERT_TRUE(arm_from_spec("t.e:2;t.f:1:3,t.g~0.25@7", &err)) << err;
  const std::vector<std::string> want = {"t.e", "t.f", "t.g"};
  EXPECT_EQ(armed_sites(), want);
  // t.e fires on hit 2 only.
  EXPECT_FALSE(should_fail("t.e"));
  EXPECT_TRUE(should_fail("t.e"));
  EXPECT_FALSE(should_fail("t.e"));
  // t.f fires on hits 1..3.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(should_fail("t.f"));
  EXPECT_FALSE(should_fail("t.f"));
}

TEST_F(FaultInjectTest, SpecForeverCount) {
  ASSERT_TRUE(arm_from_spec("t.h:1:-1"));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(should_fail("t.h"));
}

TEST_F(FaultInjectTest, MalformedSpecArmsNothing) {
  std::string err;
  // The first entry is fine; the malformed tail must reject the WHOLE spec.
  EXPECT_FALSE(arm_from_spec("t.good:1;t.bad:xyz", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(armed_sites().empty());

  EXPECT_FALSE(arm_from_spec("t.zero:0"));        // nth must be >= 1
  EXPECT_FALSE(arm_from_spec("t.cnt:1:0"));       // count must be non-zero
  EXPECT_FALSE(arm_from_spec(":3"));              // empty site name
  EXPECT_FALSE(arm_from_spec("t.p~1.5@1"));       // probability out of range
  EXPECT_FALSE(arm_from_spec("t.p~nan@1"));       // ... or not a number
  EXPECT_FALSE(arm_from_spec("t.p~0x1p-1@1"));    // no hex
  EXPECT_FALSE(arm_from_spec("t.p~0.5"));         // random mode needs @seed
  EXPECT_FALSE(arm_from_spec("t.p~0.5@-3"));      // seed must be >= 0
  EXPECT_TRUE(armed_sites().empty());
}

TEST_F(FaultInjectTest, SpecSkipsEmptyEntries) {
  ASSERT_TRUE(arm_from_spec(";t.solo:1;;"));
  const std::vector<std::string> want = {"t.solo"};
  EXPECT_EQ(armed_sites(), want);
}

TEST_F(FaultInjectTest, MacroMatchesBuildConfiguration) {
  arm("t.macro", 1, -1);
  if (fault::compiled_in()) {
    // Inject builds: the macro consults the armed table.
    EXPECT_TRUE(USYS_FAULT_POINT("t.macro"));
    EXPECT_EQ(hits("t.macro"), 1);
  } else {
    // Normal builds: the macro is the constant false — arming is inert and
    // production sites cost nothing.
    EXPECT_FALSE(USYS_FAULT_POINT("t.macro"));
    EXPECT_EQ(hits("t.macro"), 0);
  }
}

}  // namespace
}  // namespace usys::fault
