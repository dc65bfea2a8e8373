// Newton-Raphson kernel shared by the DC and transient analyses.
//
// Solves F(x) = f(x) + a0*q(x) + hist = 0 with J = Jf + a0*Jq, where the
// caller chooses a0/hist (a0 = 0, hist = 0 recovers DC, where J = Jf and no
// stamp pass asks devices for Jq). Robustness aids:
// diagonal gmin on node rows, per-unknown weighted convergence (reltol +
// nature-dependent abstol), and — for hard DC points — gmin stepping and
// source stepping continuation.
//
// Two matrix backends share the stamp contract; the unknown count alone
// picks one (n >= NewtonOptions::sparse_threshold selects sparse):
//   * sparse: pattern-cached MNA assembly (spice/mna.hpp) into flat CSR
//     value arrays + SparseLu whose symbolic factorization is computed once
//     and reused across all iterations and timesteps (the pattern is fixed
//     after bind).
//   * dense: the original n x n path, kept for small systems (lower
//     constant factors) and as the oracle the sparse path is tested
//     against (sparse_threshold = INT_MAX forces it, 0 forces sparse).
#pragma once

#include <memory>

#include "common/deadline.hpp"
#include "common/sparse_lu.hpp"
#include "common/status.hpp"
#include "spice/circuit.hpp"
#include "spice/mna.hpp"

namespace usys::spice {

struct NewtonOptions {
  int max_iters = 100;
  double reltol = 1e-6;
  double gmin = 1e-12;        ///< always-on diagonal conductance on node rows
  /// Backend crossover (unknown count): sparse when n >= sparse_threshold,
  /// dense below. Measured with
  /// `bench_solver_scaling --benchmark_filter='/(8|12|20)$'` on both bench
  /// topologies (GCC 12.2 Release, 4-vCPU x86 container, medians of 5
  /// repetitions, two runs, ns per Newton iteration), with the dense LU
  /// that skips exact zeros:
  ///   rc_ladder       n=8: dense 350-368, sparse 525-566;
  ///                   n=12: 590-820 vs 811-825; n=20: 1434-1525 vs 1320-1396;
  ///   resonator_array n=8: 391-395 vs 444-561;
  ///                   n=14: 842-848 vs 698-725; n=26: 2353-2827 vs 1292-1586.
  /// Dense still wins at n=8, the backends break even around n~12-14, and
  /// sparse leads at n=20-26 (1.1x on the ladder, 1.8x on the resonators),
  /// so the default stays in the middle of the break-even band. Moving it
  /// moves every circuit between the old and new value onto the other
  /// backend's pivot order, which changes their bits.
  int sparse_threshold = 12;
  /// Wall-clock budget for the WHOLE analysis this options object drives
  /// (run_op including its rescue ladder; run_tran including its initial
  /// operating point; run_ac including its sweep). 0 = unlimited. On expiry
  /// the analysis stops at the next poll — Newton iteration boundary,
  /// transient step boundary, or sparse factor/solve dispatch — and reports
  /// FailureKind::timeout. usim exposes this as --timeout (milliseconds).
  double timeout_ms = 0.0;
  /// Optional cooperative cancel token (non-owning; must outlive the run).
  /// Polled at the same sites as the timeout; firing reports
  /// FailureKind::cancelled. This is the server-mode kill switch.
  const CancelToken* cancel = nullptr;

  bool operator==(const NewtonOptions&) const = default;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double final_error = 0.0;  ///< max weighted update of the last iteration
  bool used_sparse = false;
  /// Full (pivot-searching) sparse factorizations this solver has run in
  /// total — stays at 1 across all iterations/timesteps of an analysis
  /// while the pattern and pivot order hold. 0 on the dense path.
  int symbolic_factorizations = 0;
  /// Why the solve stopped when converged is false: singular_matrix,
  /// newton_divergence (stall / max iters / non-finite update), timeout, or
  /// cancelled. none while converged.
  FailureKind failure = FailureKind::none;
};

/// One Newton solve at fixed (a0, hist, ctx template). `ctx_proto` supplies
/// mode/time/integ coefficients; x is the initial guess and the result.
class NewtonSolver {
 public:
  NewtonSolver(Circuit& circuit, NewtonOptions opts);

  /// hist may be empty (treated as zero).
  NewtonResult solve(EvalCtx ctx_proto, double a0, const DVector& hist, DVector& x);

  /// Evaluates f, q, Jf, Jq at x into dense matrices (single stamp pass;
  /// the AC dense path linearizes through this, and tests use it as the
  /// oracle). Includes the gmin contribution on node rows.
  void stamp(EvalCtx ctx_proto, const DVector& x, DVector& f, DVector& q, DMatrix& jf,
             DMatrix& jq);

  /// Evaluates q alone at x: the transient's charge harvest at the DC point
  /// and after each accepted step. Only the devices that store charge
  /// (Device::stores_charge) run, their f and Jacobian stamps are discarded,
  /// and q is bit-identical to the q of a full stamp.
  void harvest_charge(EvalCtx ctx_proto, const DVector& x, DVector& q);

  /// True when this solver assembles and factors sparsely.
  bool sparse_active() const noexcept { return assembler_ != nullptr; }

  /// Sparse assembly at x (f, q, and the flat Jf/Jq values retrievable via
  /// sparse_jf/sparse_jq), including gmin. Requires sparse_active(); the AC
  /// path linearizes through this. `with_jq` false discards the Jq stamps
  /// (see MnaAssembler::assemble).
  void assemble_sparse(EvalCtx ctx_proto, const DVector& x, DVector& f, DVector& q,
                       bool with_jq = true);
  const MnaPattern* pattern() const noexcept {
    return assembler_ ? &assembler_->pattern() : nullptr;
  }
  const std::vector<double>& sparse_jf() const { return assembler_->jf_values(); }
  const std::vector<double>& sparse_jq() const { return assembler_->jq_values(); }

  int symbolic_factorizations() const noexcept { return lu_.symbolic_factorizations(); }

  /// Drops the sparse LU's recorded pivot order (no-op on the dense path),
  /// so the next solve pivots afresh. The engine calls this at the DC ->
  /// transient boundary: the transient matrix Jf + a0*Jq is a different
  /// numerical regime, and a fresh pivot search there reproduces the
  /// legacy fresh-solver-per-analysis behavior bit for bit.
  void refresh_pivot_order() noexcept { lu_.invalidate_pivot_order(); }

  /// Adjusts the diagonal gmin in place, so one solver — and its single
  /// symbolic factorization — serves every stage of the gmin-stepping
  /// continuation.
  void set_gmin(double gmin) noexcept { opts_.gmin = gmin; }

  /// Borrows the analysis-scope deadline (non-owning; null = none). Checked
  /// at every Newton iteration boundary and forwarded into the sparse LU's
  /// factor/solve dispatch. The engine clears it when the analysis returns
  /// (the deadline lives on the analysis call's stack).
  void set_deadline(const Deadline* deadline) noexcept {
    deadline_ = deadline;
    lu_.set_deadline(deadline);
  }

  /// Re-tunes the iteration controls (max_iters, reltol, gmin, and the
  /// budget fields) without touching the allocated backend, so one solver —
  /// and its compiled pattern and symbolic factorization — can serve
  /// several analyses with different convergence settings. The caller must
  /// keep the backend-selection field (sparse_threshold) unchanged;
  /// compare with same_backend_config first.
  void retune(const NewtonOptions& opts) noexcept {
    opts_.max_iters = opts.max_iters;
    opts_.reltol = opts.reltol;
    opts_.gmin = opts.gmin;
    opts_.timeout_ms = opts.timeout_ms;
    opts_.cancel = opts.cancel;
  }

  /// True when `a` and `b` would build the same solver backend (the field
  /// retune() cannot change).
  static bool same_backend_config(const NewtonOptions& a, const NewtonOptions& b) noexcept {
    return a.sparse_threshold == b.sparse_threshold;
  }

 private:
  /// The dense stamp pass behind stamp(); a null `jq` discards Jq stamps.
  void stamp_dense(const EvalCtx& ctx_proto, const DVector& x, DVector& f, DVector& q,
                   DMatrix& jf, DMatrix* jq);

  Circuit& circuit_;
  NewtonOptions opts_;
  std::vector<Device*> charged_;  ///< devices that store charge, circuit order
  // Scratch, reused across iterations to avoid reallocations.
  DVector f_, q_, resid_, dx_;
  DMatrix jf_, jq_, jacobian_;          // dense backend only
  std::unique_ptr<MnaAssembler> assembler_;  // sparse backend only
  DSparseLu lu_;
  std::vector<double> jac_vals_;
  const Deadline* deadline_ = nullptr;  ///< non-owning; see set_deadline
};

/// Full DC operating point with gmin/source stepping fallbacks.
struct DcOptions {
  NewtonOptions newton;
  bool allow_gmin_stepping = true;
  bool allow_source_stepping = true;

  bool operator==(const DcOptions&) const = default;
};

}  // namespace usys::spice
