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
// The one-shot api::operating_point / transient / ac_sweep / solve_dc
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
// structure is frozen at bind), call rebind() to drop the warm solver state
// while keeping the compiled pattern.
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
  DcResult run_dc(const DcOptions& opts = {});
  /// run_dc repackaged as the analysis-level result.
  OpResult run_op(const DcOptions& opts = {});
  /// Adaptive transient from a fresh operating point.
  TranResult run_tran(const TranOptions& opts);
  /// Small-signal sweep linearized at a fresh operating point.
  AcResult run_ac(const AcOptions& opts);

  /// Re-arms the engine after external device-parameter changes: drops the
  /// warm solver (pivot order, value arrays) so the next run restamps and
  /// refactors from scratch, while the circuit's compiled MNA pattern —
  /// which depends only on structure — is reused as-is. The next run_*
  /// re-checks the parameter-sanity lint rules against the new values; the
  /// structural verdict is kept, since parameters never change structure.
  /// The server's engine cache calls it to shed that memory-heavy state on
  /// eviction.
  void rebind();

  /// True while the engine holds warm solver state (LU factors, recorded
  /// pivot order, value arrays) from a previous run. The server's engine
  /// cache reports this in /stats and uses it to pick eviction victims.
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

  /// run_dc under a caller-owned deadline, so run_tran / run_ac can make one
  /// budget cover their initial operating point AND their own stepping (the
  /// dc options' own timeout fields are zeroed by those callers).
  DcResult run_dc_under(const DcOptions& opts, const Deadline& dl);

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
