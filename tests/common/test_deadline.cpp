// Deadline / CancelToken semantics: the polling contract every solver layer
// relies on (see common/deadline.hpp).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/deadline.hpp"
#include "common/fault_inject.hpp"

namespace usys {
namespace {

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.active());
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_NO_THROW(d.check("test"));
}

TEST_F(DeadlineTest, ZeroBudgetMeansUnlimited) {
  const Deadline d = Deadline::after_ms(0.0);
  EXPECT_FALSE(d.active());
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
}

TEST_F(DeadlineTest, GenerousBudgetIsActiveButNotExpired) {
  const Deadline d = Deadline::after_ms(3.6e6);  // one hour
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
  EXPECT_NO_THROW(d.check("test"));
}

TEST_F(DeadlineTest, LongestRepresentableBudgetStaysLimited) {
  const Deadline d = Deadline::after_ms(1e12);  // ~32 years
  EXPECT_TRUE(d.active());
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.99e12);
}

TEST_F(DeadlineTest, BudgetPastTheClockRangeMeansUnlimited) {
  // steady_clock's int64 nanoseconds end ~9.2e12 ms out: these budgets
  // cannot be represented, and an unchecked cast of them is undefined
  // behaviour that used to yield an already-expired deadline.
  for (const double ms : {1e15, 1e300, std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(ms);
    const Deadline d = Deadline::after_ms(ms);
    EXPECT_FALSE(d.active());
    EXPECT_FALSE(d.limited());
    EXPECT_FALSE(d.expired());
    EXPECT_TRUE(std::isinf(d.remaining_ms()));
    EXPECT_NO_THROW(d.check("test"));
  }
}

TEST_F(DeadlineTest, TinyBudgetExpires) {
  const Deadline d = Deadline::after_ms(1e-6);
  EXPECT_TRUE(d.limited());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.exceeded_kind(), FailureKind::timeout);
  EXPECT_EQ(d.remaining_ms(), 0.0);
}

TEST_F(DeadlineTest, CancelTokenFires) {
  CancelToken token;
  const Deadline d = Deadline::after_ms(0.0, &token);
  EXPECT_TRUE(d.active());  // something to poll even without a time budget
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.exceeded_kind(), FailureKind::cancelled);
  EXPECT_EQ(d.remaining_ms(), 0.0);
  token.reset();
  EXPECT_FALSE(d.expired());
}

TEST_F(DeadlineTest, CancelWinsOverTimeoutForTheKind) {
  CancelToken token;
  token.cancel();
  const Deadline d = Deadline::after_ms(1e-6, &token);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.exceeded_kind(), FailureKind::cancelled);
}

TEST_F(DeadlineTest, CheckThrowsDeadlineErrorWithSite) {
  CancelToken token;
  token.cancel();
  const Deadline d = Deadline::after_ms(0.0, &token);
  try {
    d.check("newton iteration");
    FAIL() << "check() should have thrown";
  } catch (const DeadlineError& e) {
    EXPECT_EQ(e.kind(), FailureKind::cancelled);
    EXPECT_NE(std::string(e.what()).find("newton iteration"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cancelled"), std::string::npos);
  }
}

TEST_F(DeadlineTest, FaultSiteForcesExpiryWithoutWaiting) {
  if (!fault::compiled_in()) GTEST_SKIP() << "needs -DUSYS_FAULT_INJECT=ON";
  const Deadline d = Deadline::after_ms(3.6e6);  // would never expire for real
  fault::arm("deadline.expire", 1, 1);
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.exceeded_kind(), FailureKind::timeout);
  EXPECT_FALSE(d.expired());  // the single shot is spent
  EXPECT_EQ(fault::fired("deadline.expire"), 1);
}

}  // namespace
}  // namespace usys
