#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace usys {

namespace {

/// True on a pool worker, and on a caller while it runs its share of a
/// dispatch: run() from here must not wait for a pool that is waiting on it.
thread_local bool t_in_task = false;

}  // namespace

int ThreadPool::threads_for(int requested) noexcept {
  if (requested > 0) return requested;
  if (requested < 0) return 1;  // the documented floor, not auto
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* const pool = new ThreadPool();  // never deleted: see the header's exit rule
  return *pool;
}

void ThreadPool::grow(int threads) {
  const auto total = static_cast<std::size_t>(std::max(1, threads));
  while (workers_.size() + 1 < total) {
    auto& w = workers_.emplace_back(std::make_unique<Worker>());
    w->thread = std::thread([this, self = w.get()] { worker_loop(*self); });
  }
}

void ThreadPool::work_off() {
  for (;;) {
    const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= ntasks_) return;
    try {
      (*job_)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(Worker& self) {
  t_in_task = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    self.wake.wait(lock, [&] { return self.called; });
    self.called = false;
    lock.unlock();
    work_off();
    lock.lock();
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run(int ntasks, const std::function<void(int)>& fn, int width) {
  if (ntasks <= 0) return;
  const int total = std::min(width, ntasks);
  if (total <= 1 || t_in_task) {
    for (int t = 0; t < ntasks; ++t) fn(t);
    return;
  }
  std::lock_guard<std::mutex> dispatch(dispatch_mu_);
  grow(total);
  const auto helpers = static_cast<std::size_t>(total - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    ntasks_ = ntasks;
    next_task_.store(0, std::memory_order_relaxed);
    busy_ = total - 1;
    for (std::size_t i = 0; i < helpers; ++i) workers_[i]->called = true;
  }
  for (std::size_t i = 0; i < helpers; ++i) workers_[i]->wake.notify_one();

  t_in_task = true;
  work_off();  // the caller claims tasks too; catches what the tasks throw
  t_in_task = false;

  // Finish barrier: `fn` lives on the caller's stack, so every called
  // worker must wake, drain the task counter and check out before it goes.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return busy_ == 0; });
    job_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace usys
