// AnalysisEngine — the shared simulation core behind DC, transient, and AC.
//
// The paper's central analogy ("FE and SPICE simulators present analogies
// concerning the analysis types they can perform: static-dc, harmonic-ac,
// transient-transient") used to be realized as three free functions that
// each rebuilt their own bind/assemble/solve plumbing. The engine owns that
// plumbing ONCE per circuit:
//
//   * the bound unknown layout and compiled CSR stamp pattern
//     (Circuit::mna_pattern — built lazily, cached for the circuit's life);
//   * one NewtonSolver — sparse/dense backend selection, the flat Jf/Jq
//     value arrays and the sparse LU with its symbolic factorization —
//     reused across run_op / run_tran / run_ac calls instead of being
//     rebuilt per analysis;
//   * the integrator machinery of the transient loop.
//
// The one-shot api::operating_point / transient / ac_sweep
// (api/api.hpp) construct a fresh engine per call; batch workloads
// (spice/sweep.hpp, usim --sweep) and the simulation server hold one
// engine per circuit and run many analyses against it.
//
// Reuse semantics: the solver backend is (re)built only when an analysis
// asks for a different backend configuration (NewtonOptions::
// sparse_threshold); convergence controls are re-tuned in place. Per-run
// statistics (symbolic_factorizations) are reported as deltas, so a reused
// engine reports 0 extra symbolic factorizations once its pivot order is
// warm. After changing device PARAMETERS (values, not circuit structure —
// structure is frozen at bind), call rebind() to drop the recorded pivot
// order while keeping the solver and the compiled pattern; cool() sheds the
// solver itself. The engine keeps no operating point
// between calls: run_tran / run_ac solve their own unless the caller hands
// one over (api::Session::run passes its job's .op point).
#pragma once

#include <memory>

#include "spice/analysis.hpp"
#include "spice/lint.hpp"

namespace usys::spice {

class AnalysisEngine {
 public:
  /// Binds the circuit (idempotent) and runs the errors-only static
  /// preflight (spice/lint.hpp). The circuit must outlive the engine.
  explicit AnalysisEngine(Circuit& circuit);
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  Circuit& circuit() noexcept { return circuit_; }

  /// DC operating point (plain Newton, then gmin / source stepping).
  OpResult run_op(const DcOptions& opts = {});
  /// Adaptive transient from an operating point: `op` when given, else one
  /// solved here under opts.dc. A given `op` must be a converged run_op
  /// result of this circuit, solved under options equal to opts.dc apart
  /// from the budget fields and with no transient run since — the engine
  /// keeps no cache and cannot check; api::Session::run passes one only
  /// within a job. The result's iteration count and rescue flags are `op`'s,
  /// exactly as a fresh solve reports them.
  TranResult run_tran(const TranOptions& opts, const OpResult* op = nullptr);
  /// Small-signal sweep linearized at an operating point: `op` when given
  /// (same contract as run_tran), else one solved here under opts.dc.
  AcResult run_ac(const AcOptions& opts, const OpResult* op = nullptr);

  /// Re-arms the engine after external device-parameter changes: drops the
  /// solver's recorded pivot order, so the next run restamps and pivots
  /// afresh exactly as a fresh solver would, while the solver's buffers and
  /// the circuit's compiled MNA pattern — which depend only on structure —
  /// are reused as-is. The next run_* re-checks the parameter-sanity lint
  /// rules against the new values; the structural verdict is kept, since
  /// parameters never change structure.
  void rebind();

  /// Sheds the solver (LU factors, value arrays, scratch) and keeps the
  /// bind, pattern and preflight; the next run builds a new solver. The
  /// server's engine cache calls it to cool an entry past its warm capacity.
  void cool();

  /// True while the engine holds solver state (LU factors, value arrays)
  /// from a previous run; false after cool(). The server's engine cache
  /// reports this in /stats and uses it to pick eviction victims.
  bool warm() const noexcept { return solver_ != nullptr; }

  /// The construction-time static diagnostics pass (errors-only options:
  /// the expensive matching probe and the HDL re-surface are left to
  /// `usim --lint`), with its parameter findings refreshed by the first
  /// run_* after each rebind(). When it holds errors, every run_* call
  /// returns a FailureKind::lint_rejected result instead of attempting a
  /// solve.
  const LintReport& preflight() const noexcept { return preflight_; }

 private:
  /// The engine's one solver, (re)built only on backend-config changes and
  /// re-tuned in place otherwise.
  NewtonSolver& solver_for(const NewtonOptions& opts);

  /// run_op under a caller-owned deadline, so run_tran / run_ac can make one
  /// budget cover their initial operating point AND their own stepping (the
  /// dc options' own timeout fields are zeroed by those callers).
  OpResult run_op_under(const DcOptions& opts, const Deadline& dl);

  /// Which numerical regime the shared solver's recorded pivot order came
  /// from. Crossing regimes (DC <-> transient) drops the pivot order so
  /// results never depend on what ran before — same-regime reruns keep it.
  enum class FactorRegime { none, dc, transient };
  void enter_regime(NewtonSolver& solver, FactorRegime regime);

  /// Re-runs the parameter-sanity rules after a rebind(): preflight_ becomes
  /// the fresh parameter findings followed by the kept structural ones —
  /// the order a cold preflight reports them in.
  void recheck_parameters();

  Circuit& circuit_;
  LintReport preflight_;
  std::vector<LintDiag> structural_;  ///< preflight_ minus parameter findings
  bool params_stale_ = false;         ///< set by rebind(), cleared on recheck
  std::unique_ptr<NewtonSolver> solver_;
  NewtonOptions solver_opts_;  ///< options solver_ was built with
  FactorRegime regime_ = FactorRegime::none;
};

}  // namespace usys::spice
