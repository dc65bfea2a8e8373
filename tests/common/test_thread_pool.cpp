// ThreadPool: full task coverage (every index exactly once), caller
// participation, repeated dispatch reuse, and exception transport.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace usys {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.run(257, [&](int t) { hits[static_cast<std::size_t>(t)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.run(16, [&](int t) { sum.fetch_add(t); });
  }
  EXPECT_EQ(sum.load(), 200L * (15 * 16 / 2));
}

TEST(ThreadPool, ZeroOrNegativeTaskCountIsANoop) {
  ThreadPool pool(3);
  int calls = 0;
  pool.run(0, [&](int) { ++calls; });
  pool.run(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterBarrier) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.run(64, [&](int t) {
      if (t == 13) throw std::runtime_error("task 13 failed");
      completed.fetch_add(1);
    });
    FAIL() << "expected the task exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 13 failed");
  }
  // The barrier still completed every other task before rethrowing.
  EXPECT_EQ(completed.load(), 63);
  // And the pool is still usable afterwards.
  pool.run(8, [&](int) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), 71);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::threads_for(3), 3);
  EXPECT_GE(ThreadPool::threads_for(0), 1);
}

}  // namespace
}  // namespace usys
