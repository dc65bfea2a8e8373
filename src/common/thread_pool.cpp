#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace usys {

namespace {

/// Spin budget (yield rounds) before a barrier wait falls back to a condvar
/// sleep. A freshly started worker usually sees run()'s generation within
/// it, and the caller's finish barrier usually sees the last tasks end
/// within it; a longer wait sleeps. The value is not tuned to any
/// measurement.
constexpr int kSpinRounds = 2048;

}  // namespace

int ThreadPool::threads_for(int requested) noexcept {
  if (requested > 0) return requested;
  if (requested < 0) return 1;  // the documented floor, not auto
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int total = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 1; i < total; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_.store(true, std::memory_order_relaxed);
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work_off(const std::function<void(int)>& fn) {
  for (;;) {
    const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= ntasks_) return;
    try {
      fn(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    // Start barrier: spin briefly for the next generation, then sleep.
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    for (int spin = 0; gen == seen && !shutdown_.load(std::memory_order_relaxed);
         ++spin) {
      if (spin >= kSpinRounds) {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] {
          return generation_.load(std::memory_order_acquire) != seen ||
                 shutdown_.load(std::memory_order_relaxed);
        });
      } else {
        std::this_thread::yield();
      }
      gen = generation_.load(std::memory_order_acquire);
    }
    if (shutdown_.load(std::memory_order_relaxed)) return;
    seen = gen;

    work_off(*job_);

    workers_done_.fetch_add(1, std::memory_order_release);
    // Pair with run()'s sleep path: the empty critical section guarantees a
    // sleeping caller either saw the increment or is inside wait().
    { std::lock_guard<std::mutex> lock(mu_); }
    done_cv_.notify_one();
  }
}

void ThreadPool::run(int ntasks, const std::function<void(int)>& fn) {
  if (ntasks <= 0) return;
  if (workers_.empty()) {
    // Single-threaded pool: plain loop, exceptions propagate directly.
    for (int t = 0; t < ntasks; ++t) fn(t);
    return;
  }
  job_ = &fn;
  ntasks_ = ntasks;
  next_task_.store(0, std::memory_order_relaxed);
  workers_done_.store(0, std::memory_order_relaxed);
  first_error_ = nullptr;
  {
    // Publishing under the mutex pairs with the workers' sleep path (no
    // missed wakeups); the release store publishes job_/ntasks_ to spinners.
    std::lock_guard<std::mutex> lock(mu_);
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();

  work_off(fn);  // the caller claims tasks too

  // Finish barrier: every worker must have woken for this generation and
  // drained the task counter — only then is `fn` (on the caller's stack)
  // safe to drop. Spin first, sleep if the stragglers take long.
  const int nworkers = static_cast<int>(workers_.size());
  bool done = false;
  for (int spin = 0; spin < kSpinRounds; ++spin) {
    if (workers_done_.load(std::memory_order_acquire) == nworkers) {
      done = true;
      break;
    }
    std::this_thread::yield();
  }
  if (!done) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return workers_done_.load(std::memory_order_acquire) == nworkers;
    });
  }
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

}  // namespace usys
