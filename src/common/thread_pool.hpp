// Fork-join thread pool behind the batch sweep runner (spice/sweep.hpp).
// There is one pool per process, ThreadPool::shared(): every
// SweepRunner::run wider than 1 dispatches to it. The first such call
// creates it, a wider call grows it, nothing shrinks it. Its workers
// outlive each batch, and so do their thread_local warm sweep templates
// (api/api.cpp): a worker builds its template once per process, not once
// per batch.
//
// That reuse pays only in a process that runs more than one parallel batch:
// a program that calls api::run_sweep in a loop, bench_sweep_mc,
// bench_array_scaling and perfbench's mc_sweep. A one-batch process (usim)
// still builds each worker's template once, as a per-call pool did, and the
// server runs its sweeps 1 wide, off the pool (docs/sweeps.md).
//
// Design constraints, in order:
//   * idle workers sleep — every wait is a condvar wait, with no spinning,
//     so a parked pool burns no CPU while the caller runs its serial tail;
//   * per-call width — run(n, fn, width) calls exactly width - 1 workers,
//     always the lowest-numbered ones, so a narrow call lands on the same
//     threads (and warm templates) each time and the others stay asleep;
//   * caller participation — the calling thread works too, so width 1 is a
//     plain loop with zero synchronization;
//   * exception transport — the first exception thrown by any task is
//     rethrown on the calling thread after the barrier;
//   * no deadlock — dispatches serialize on a mutex, and run() called from
//     inside a task runs inline on that thread.
//
// Exit: the pool is never destroyed, so its threads are never joined. At
// process exit the workers stay parked on their condvars while static
// destructors run, so no worker's thread_local Session — which can hold
// code from a dlopen'd codegen object (hdl/codegen.hpp) — is destroyed
// after the codegen registry's statics; the threads end with the process.
//
// Tasks are claimed from a shared atomic counter (work stealing by index),
// so which worker runs which task is nondeterministic; callers that need
// deterministic RESULTS must make task outputs independent (write to
// disjoint, index-addressed storage), which is exactly what the sweep runner does.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace usys {

class ThreadPool {
 public:
  /// The process's pool; starts with no background threads.
  static ThreadPool& shared();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(task) for every task in [0, ntasks) on `width` threads, the
  /// caller included, growing the pool first when it is narrower, and
  /// returns once every task has finished. Concurrent calls run one after
  /// another; a call from inside a task runs its tasks inline, as does a
  /// call whose width or task count is 1 (exceptions then propagate
  /// directly).
  void run(int ntasks, const std::function<void(int)>& fn, int width);

  /// Resolves a user-facing thread request: 0 = auto (hardware concurrency),
  /// otherwise the value itself, floored at 1.
  static int threads_for(int requested) noexcept;

 private:
  struct Worker {
    std::condition_variable wake;
    bool called = false;  ///< guarded by mu_: take part in the current run()
    std::thread thread;   ///< never joined: see Exit above
  };

  ThreadPool() = default;
  ~ThreadPool() = delete;  // see Exit above

  void grow(int threads);
  void worker_loop(Worker& self);
  void work_off();

  std::mutex dispatch_mu_;  ///< held for a whole run(); guards workers_ growth
  std::vector<std::unique_ptr<Worker>> workers_;

  // The current dispatch. job_/ntasks_ are written under mu_ before any
  // worker is called and read by the called workers after they see
  // `called` under mu_.
  const std::function<void(int)>* job_ = nullptr;
  int ntasks_ = 0;
  std::atomic<int> next_task_{0};

  std::mutex mu_;
  std::condition_variable done_cv_;
  int busy_ = 0;                     ///< guarded by mu_: called workers not yet done
  std::exception_ptr first_error_;  ///< guarded by mu_
};

}  // namespace usys
