// Shared enums and evaluation contexts of the MNA solver.
//
// The solver is *charge-oriented*: each device stamps, at the current Newton
// iterate, an algebraic flow residual `f`, a stored-quantity residual `q`
// (charge / flux / displacement-like), and their Jacobians Jf and Jq. The
// analyses then compose those pieces:
//   DC:        f(x) = 0                      J = Jf
//   transient: f(x) + a0*q(x) + hist = 0     J = Jf + a0*Jq
//   AC:        (Jf + j*omega*Jq) X = B       (linearization at the DC point)
// so small-signal behavior is *derived automatically* from the same stamps —
// the linearized-equivalent-circuit devices of the paper are built by hand
// as an independent baseline and cross-checked against this path in tests.
#pragma once

#include <cstddef>

#include "common/matrix.hpp"

namespace usys::spice {

enum class AnalysisMode { dc, transient };

/// Numerical integration method for the transient analysis.
enum class IntegMethod {
  backward_euler,  ///< order 1, L-stable, damps numerical ringing
  trapezoidal,     ///< order 2, A-stable, the default (SPICE's default too)
  gear2,           ///< BDF2: order 2, L-stable — kills trapezoidal ringing
                   ///< (device-internal integ() states fall back to order 1)
};

/// Sparse accumulation target, wired by the MNA assembler (spice/mna.hpp)
/// before each device's evaluate(). Holds only raw pointers into the
/// assembler's compiled pattern so this header stays dependency-free. A
/// stamp is one indexed write into a flat values array through the active
/// device's precomputed slot table; a stamp outside that device's footprint
/// is counted in `missed`, and the assembler turns it into an error.
struct SparseStampSink {
  const int* local_of = nullptr;  ///< global unknown -> active device's local index (-1 = outside)
  const int* slots = nullptr;     ///< k*k local (row, col) -> flat value slot
  int k = 0;
  double* jf_vals = nullptr;
  double* jq_vals = nullptr;
  long missed = 0;                ///< stamps outside the active footprint (fatal)

  void add(double* vals, int r, int c, double v) noexcept {
    const int li = local_of[r];
    const int lj = local_of[c];
    if (li >= 0 && lj >= 0) {
      vals[slots[li * k + lj]] += v;
    } else {
      ++missed;
    }
  }
};

/// Everything a Device::evaluate needs to read and write for one stamp pass.
struct EvalCtx {
  AnalysisMode mode = AnalysisMode::dc;
  double time = 0.0;          ///< evaluation time (t_{n+1}); 0 during DC
  double source_scale = 1.0;  ///< 0..1 during source-stepping continuation

  // Device-internal integral states s = integ(e): during a transient step
  //   s = s_prev + integ_c0*e_prev + integ_c1*e   (ds/de = integ_c1)
  // and during DC both coefficients are 0 (state pinned at its initial value).
  double integ_c0 = 0.0;
  double integ_c1 = 0.0;

  const DVector* x = nullptr;  ///< current Newton iterate
  DVector* f = nullptr;        ///< algebraic residual accumulator
  DVector* q = nullptr;        ///< stored-quantity accumulator
  DMatrix* jf = nullptr;       ///< d f / d x (dense path; null = sparse or discarded)
  DMatrix* jq = nullptr;       ///< d q / d x (dense path; null = sparse or discarded)
  SparseStampSink* sparse = nullptr;  ///< sparse path (takes precedence over jf/jq)

  /// Value of unknown `idx`; ground (-1) reads as 0.
  double v(int idx) const noexcept { return idx < 0 ? 0.0 : (*x)[static_cast<std::size_t>(idx)]; }

  /// True when this pass accumulates Jq (devices deriving Jq indirectly,
  /// like the HDL interpreter's two-pass extraction, gate on it). False on
  /// value-only passes where all Jacobian stamps are discarded.
  bool wants_jq() const noexcept { return sparse != nullptr || jq != nullptr; }

  /// True when this pass keeps any Jacobian stamp. False on value-only
  /// passes (NewtonSolver::stamp_values), where devices may skip computing
  /// derivatives altogether.
  bool wants_jacobian() const noexcept {
    return sparse != nullptr || jf != nullptr || jq != nullptr;
  }

  void f_add(int row, double val) noexcept {
    if (row >= 0) (*f)[static_cast<std::size_t>(row)] += val;
  }
  void q_add(int row, double val) noexcept {
    if (row >= 0) (*q)[static_cast<std::size_t>(row)] += val;
  }
  void jf_add(int row, int col, double val) noexcept {
    if (row < 0 || col < 0) return;
    if (sparse != nullptr) {
      sparse->add(sparse->jf_vals, row, col, val);
    } else if (jf != nullptr) {
      (*jf)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += val;
    }
  }
  void jq_add(int row, int col, double val) noexcept {
    if (row < 0 || col < 0) return;
    if (sparse != nullptr) {
      sparse->add(sparse->jq_vals, row, col, val);
    } else if (jq != nullptr) {
      (*jq)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += val;
    }
  }
};

/// Passed to Device::accept after a transient step converges, so devices can
/// commit internal integral states using the same coefficients the step used.
struct AcceptCtx {
  double time = 0.0;
  double integ_c0 = 0.0;
  double integ_c1 = 0.0;
  const DVector* x = nullptr;
  double v(int idx) const noexcept { return idx < 0 ? 0.0 : (*x)[static_cast<std::size_t>(idx)]; }
};

/// A device-internal integral state: s(t) = s0 + integral of e dt.
/// Used by the behavioral transducers for displacement = integ(velocity),
/// mirroring `x := integ(S)` in the paper's Listing 1.
class InternalState {
 public:
  /// Initial condition (value during DC and at transient t=0).
  void set_initial(double s0) noexcept { s0_ = s_prev_ = s0; }
  double initial() const noexcept { return s0_; }

  /// Re-arm history at the start of a transient run, where `e0` is the
  /// integrand's value at the DC point.
  void start(double e0) noexcept {
    s_prev_ = s0_;
    e_prev_ = e0;
  }

  /// Current value given the integrand's present value `e`.
  double value(double e, const EvalCtx& ctx) const noexcept {
    if (ctx.mode != AnalysisMode::transient) return s0_;
    return s_prev_ + ctx.integ_c0 * e_prev_ + ctx.integ_c1 * e;
  }
  /// d value / d e under the step's integration formula.
  double slope(const EvalCtx& ctx) const noexcept {
    return ctx.mode == AnalysisMode::transient ? ctx.integ_c1 : 0.0;
  }

  /// Commits the state after an accepted step (e = integrand at t_{n+1}).
  void accept(double e, const AcceptCtx& ctx) noexcept {
    s_prev_ = s_prev_ + ctx.integ_c0 * e_prev_ + ctx.integ_c1 * e;
    e_prev_ = e;
  }

  double committed() const noexcept { return s_prev_; }

 private:
  double s0_ = 0.0;
  double s_prev_ = 0.0;
  double e_prev_ = 0.0;
};

}  // namespace usys::spice
