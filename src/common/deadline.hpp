// Wall-clock deadlines and cooperative cancellation for long-running solves.
//
// A Deadline bundles an optional wall-clock budget with an optional
// CancelToken. The Newton loop, the transient stepper, and the sparse LU's
// factor/solve dispatch each poll expired() at their natural iteration
// boundary, so no analysis can run (or hang) unboundedly once a budget is
// configured — the prerequisite for batch sweeps and a long-lived server.
// Polling sites are cheap (one steady_clock read) and only run when a
// deadline is active(), so unbudgeted analyses pay nothing.
//
// Ownership: a Deadline lives on the stack of the analysis entry point
// (AnalysisEngine::run_*); everything below borrows it by pointer for the
// duration of that call. The CancelToken outlives the analysis — it is the
// caller's handle for cancelling from another thread.
#pragma once

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

#include "common/status.hpp"

namespace usys {

/// Thread-safe cooperative cancellation flag. cancel() may be called from
/// any thread; solvers poll it (via Deadline) between iterations.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_relaxed); }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Thrown by deep layers (sparse LU dispatch) when the deadline expires
/// mid-operation; callers translate it into a FailureInfo.
class DeadlineError : public std::runtime_error {
 public:
  DeadlineError(FailureKind kind, const std::string& where)
      : std::runtime_error(std::string(to_string(kind)) + " in " + where), kind_(kind) {}
  FailureKind kind() const noexcept { return kind_; }

 private:
  FailureKind kind_;
};

class Deadline {
 public:
  /// No budget, no cancel: never expires, active() is false.
  Deadline() = default;

  /// Budget of `ms` wall-clock milliseconds from now plus an optional cancel
  /// token (null means none). ms <= 0, NaN, +inf and any budget too large
  /// for steady_clock to represent (over ~146 years) mean no time budget.
  static Deadline after_ms(double ms, const CancelToken* cancel = nullptr);

  /// True when there is anything to poll (a time budget or a cancel token).
  /// Callers skip the per-iteration checks entirely when inactive.
  bool active() const noexcept { return limited_ || cancel_ != nullptr; }
  bool limited() const noexcept { return limited_; }

  /// True once the budget is spent or the token fired. Also consults the
  /// "deadline.expire" fault-injection site (fault-inject builds only), so
  /// tests can force a timeout at an exact poll without real waiting.
  bool expired() const noexcept;

  /// Why expired() holds: cancelled if the token fired, else timeout.
  /// Meaningless (returns timeout) while expired() is false.
  FailureKind exceeded_kind() const noexcept;

  /// Throws DeadlineError when expired; `where` names the polling site.
  void check(const char* where) const;

  /// Milliseconds left; +inf when not time-limited, 0 when expired.
  double remaining_ms() const noexcept;

 private:
  std::chrono::steady_clock::time_point end_{};
  const CancelToken* cancel_ = nullptr;
  bool limited_ = false;
};

}  // namespace usys
