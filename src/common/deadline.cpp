#include "common/deadline.hpp"

#include <limits>

#include "common/fault_inject.hpp"

namespace usys {

Deadline Deadline::after_ms(double ms, const CancelToken* cancel) {
  using Clock = std::chrono::steady_clock;
  Deadline d;
  d.cancel_ = cancel;
  if (!(ms > 0.0)) return d;
  // A budget past the clock's range (its int64 tick count ends ~292 years
  // from the epoch) cannot be represented — casting it would be undefined
  // behaviour — and no run outlives it anyway: it means unlimited, as +inf
  // does. Half the remaining range keeps the double -> tick rounding clear
  // of the limit.
  const Clock::time_point now = Clock::now();
  const double room_ms =
      std::chrono::duration<double, std::milli>(Clock::time_point::max() - now).count();
  if (ms >= 0.5 * room_ms) return d;
  d.limited_ = true;
  d.end_ = now + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(ms));
  return d;
}

bool Deadline::expired() const noexcept {
  if (cancel_ != nullptr && cancel_->cancelled()) return true;
  if (USYS_FAULT_POINT("deadline.expire")) return true;
  return limited_ && std::chrono::steady_clock::now() >= end_;
}

FailureKind Deadline::exceeded_kind() const noexcept {
  return (cancel_ != nullptr && cancel_->cancelled()) ? FailureKind::cancelled
                                                      : FailureKind::timeout;
}

void Deadline::check(const char* where) const {
  if (expired()) throw DeadlineError(exceeded_kind(), where);
}

double Deadline::remaining_ms() const noexcept {
  if (expired()) return 0.0;
  if (!limited_) return std::numeric_limits<double>::infinity();
  const auto left = end_ - std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(left).count();
}

}  // namespace usys
