// ThreadPool: full task coverage (every index exactly once), caller
// participation, repeated dispatch reuse, per-call width and growth, and
// exception transport, all on the process's shared pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace usys {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (int width : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ThreadPool::shared().run(
        257, [&](int t) { hits[static_cast<std::size_t>(t)].fetch_add(1); }, width);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    ThreadPool::shared().run(16, [&](int t) { sum.fetch_add(t); }, 4);
  }
  EXPECT_EQ(sum.load(), 200L * (15 * 16 / 2));
}

TEST(ThreadPool, WidthBoundsTheThreads) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  const auto record = [&](int) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  };
  ThreadPool::shared().run(8, record, 6);  // the pool is at least 6 wide now
  for (std::size_t width : {2u, 3u}) {
    ids.clear();
    ThreadPool::shared().run(256, record, static_cast<int>(width));
    EXPECT_LE(ids.size(), width);
  }
}

TEST(ThreadPool, WideCallRunsItsTasksAtOnce) {
  // Every task waits until all 6 have started, so they finish in time only
  // if the call really put 6 threads on them.
  constexpr int kWidth = 6;
  std::atomic<int> arrived{0};
  std::atomic<int> timed_out{0};
  ThreadPool::shared().run(
      kWidth,
      [&](int) {
        arrived.fetch_add(1);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < kWidth) {
          if (std::chrono::steady_clock::now() > deadline) {
            timed_out.fetch_add(1);
            return;
          }
          std::this_thread::yield();
        }
      },
      kWidth);
  EXPECT_EQ(arrived.load(), kWidth);
  EXPECT_EQ(timed_out.load(), 0);
}

TEST(ThreadPool, ZeroOrNegativeTaskCountIsANoop) {
  int calls = 0;
  ThreadPool::shared().run(0, [&](int) { ++calls; }, 3);
  ThreadPool::shared().run(-5, [&](int) { ++calls; }, 3);
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, FirstExceptionPropagatesAfterBarrier) {
  std::atomic<int> completed{0};
  try {
    ThreadPool::shared().run(
        64,
        [&](int t) {
          if (t == 13) throw std::runtime_error("task 13 failed");
          completed.fetch_add(1);
        },
        4);
    FAIL() << "expected the task exception to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 13 failed");
  }
  // The barrier still completed every other task before rethrowing.
  EXPECT_EQ(completed.load(), 63);
  // And the pool is still usable afterwards.
  ThreadPool::shared().run(8, [&](int) { completed.fetch_add(1); }, 4);
  EXPECT_EQ(completed.load(), 71);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(ThreadPool::threads_for(3), 3);
  EXPECT_GE(ThreadPool::threads_for(0), 1);
}

}  // namespace
}  // namespace usys
