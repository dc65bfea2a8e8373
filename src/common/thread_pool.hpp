// Small fork-join thread pool behind the batch sweep runner
// (spice/sweep.hpp). SweepRunner::run builds one pool per call, sized to
// the points it has to run, and fans those points out over it in a single
// run(); the workers are joined when the call returns.
//
// Design constraints, in order:
//   * cheap dispatch — run() spawns no threads and allocates nothing, and
//     the start/finish barriers spin briefly before falling back to condvar
//     sleeps;
//   * caller participation — the constructing thread works too, so a
//     "1-thread pool" degrades to a plain loop with zero synchronization;
//   * exception transport — the first exception thrown by any task is
//     rethrown on the calling thread after the barrier.
//
// Tasks are claimed from a shared atomic counter (work stealing by index),
// so which worker runs which task is nondeterministic; callers that need
// deterministic RESULTS must make task outputs independent (write to
// disjoint, index-addressed storage), which is exactly what the sweep runner does.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace usys {

class ThreadPool {
 public:
  /// Total worker count including the calling thread: `threads` <= 1 means
  /// no background threads at all; 0 picks std::thread::hardware_concurrency.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers available to run(), including the caller. Always >= 1.
  int thread_count() const noexcept { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(task) for every task in [0, ntasks), distributing tasks over
  /// all workers plus the calling thread, and returns once every task has
  /// finished. Not reentrant: run() must not be called from inside a task.
  void run(int ntasks, const std::function<void(int)>& fn);

  /// Resolves a user-facing thread request: 0 = auto (hardware concurrency),
  /// otherwise the value itself, floored at 1.
  static int threads_for(int requested) noexcept;

 private:
  void worker_loop();
  void work_off(const std::function<void(int)>& fn);

  std::vector<std::thread> workers_;

  // Dispatch state. job_/ntasks_ are written by run() before the release
  // store to generation_ and read by workers after their acquire load, so
  // they need no lock of their own; the mutex exists only to pair with the
  // condvar sleep paths.
  const std::function<void(int)>* job_ = nullptr;
  int ntasks_ = 0;
  std::atomic<int> next_task_{0};
  std::atomic<int> workers_done_{0};  ///< workers finished with the current generation
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;  // guarded by mu_
};

}  // namespace usys
