#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/deadline.hpp"
#include "common/fault_inject.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"

namespace usys::spice {

namespace {

/// Installs an analysis-scope deadline on the engine's shared solver and
/// guarantees removal on every exit path — the Deadline lives on the
/// analysis call's stack, and the solver outlives the call.
class SolverDeadlineGuard {
 public:
  SolverDeadlineGuard(NewtonSolver& solver, const Deadline& dl) : solver_(solver) {
    if (dl.active()) solver_.set_deadline(&dl);
  }
  ~SolverDeadlineGuard() { solver_.set_deadline(nullptr); }

  SolverDeadlineGuard(const SolverDeadlineGuard&) = delete;
  SolverDeadlineGuard& operator=(const SolverDeadlineGuard&) = delete;

 private:
  NewtonSolver& solver_;
};

/// Deadline/cancel verdicts abort the whole analysis — retrying a later
/// rescue stage after a timeout would just time out again, later.
bool hard_stop(FailureKind k) noexcept {
  return k == FailureKind::timeout || k == FailureKind::cancelled;
}

/// The dc options of a transient or AC run with their own budget fields
/// cleared: the caller's one deadline covers the operating point too.
DcOptions budgetless(DcOptions dc) noexcept {
  dc.newton.timeout_ms = 0.0;
  dc.newton.cancel = nullptr;
  return dc;
}

}  // namespace

AnalysisEngine::AnalysisEngine(Circuit& circuit) : circuit_(circuit) {
  circuit_.bind_all();
  // Errors-only preflight: the structural-singularity probe (matching) and
  // the HDL warning re-surface belong to the explicit `usim --lint` pass;
  // here we only want the defects that make a solve pointless. Warnings
  // (floating nodes, DC-only shorts, ...) never block an analysis — gmin
  // rescues most of them numerically.
  LintOptions opts;
  opts.matching = false;
  opts.hdl = false;
  preflight_ = lint_circuit(circuit_, opts);
  for (const LintDiag& d : preflight_.diags) {
    if (!is_parameter_rule(d.rule)) structural_.push_back(d);
  }
}

AnalysisEngine::~AnalysisEngine() = default;

void AnalysisEngine::rebind() {
  circuit_.bind_all();  // idempotent; structure is frozen after the first bind
  // A fresh solver's first solve pivots afresh; so does this one. Its
  // buffers are rewritten by every stamp pass and are kept.
  if (solver_) solver_->refresh_pivot_order();
  params_stale_ = true;
}

void AnalysisEngine::cool() {
  solver_.reset();  // pivot order, value arrays, scratch; the pattern survives
}

void AnalysisEngine::recheck_parameters() {
  LintOptions opts;
  opts.connectivity = false;
  opts.matching = false;
  opts.hdl = false;
  preflight_ = lint_circuit(circuit_, opts);
  preflight_.diags.insert(preflight_.diags.end(), structural_.begin(), structural_.end());
  params_stale_ = false;
}

NewtonSolver& AnalysisEngine::solver_for(const NewtonOptions& opts) {
  if (!solver_ || !NewtonSolver::same_backend_config(solver_opts_, opts)) {
    solver_ = std::make_unique<NewtonSolver>(circuit_, opts);
    solver_opts_ = opts;
    regime_ = FactorRegime::none;
  } else {
    solver_->retune(opts);
  }
  return *solver_;
}

void AnalysisEngine::enter_regime(NewtonSolver& solver, FactorRegime regime) {
  // The DC matrix (Jf) and the transient matrix (Jf + a0*Jq) are different
  // numerical regimes; a pivot order recorded in one can silently degrade in
  // the other. Crossing the boundary pivots afresh — which also makes every
  // run bit-identical to the legacy fresh-solver-per-analysis path — while
  // same-regime reruns (warm sweeps) keep the recorded order.
  if (regime_ != regime) solver.refresh_pivot_order();
  regime_ = regime;
}

// ---------------------------------------------------------------------------
// DC
// ---------------------------------------------------------------------------

OpResult AnalysisEngine::run_op(const DcOptions& opts) {
  const Deadline dl = Deadline::after_ms(opts.newton.timeout_ms, opts.newton.cancel);
  return run_op_under(opts, dl);
}

OpResult AnalysisEngine::run_op_under(const DcOptions& opts, const Deadline& dl) {
  OpResult out;
  out.x.assign(static_cast<std::size_t>(circuit_.unknown_count()), 0.0);

  if (params_stale_) recheck_parameters();
  // Static preflight verdict: an error-severity structural defect (voltage
  // loop, zero resistance, ...) makes every Newton stage below pointless —
  // report it as a structured failure instead of burning the rescue ladder.
  if (preflight_.has_errors()) {
    out.failure = make_failure(FailureKind::lint_rejected, "dc",
                               preflight_.error_summary());
    log_warn("solve_dc: " + out.failure.to_string());
    return out;
  }

  EvalCtx ctx;
  ctx.mode = AnalysisMode::dc;
  ctx.time = 0.0;

  // One solver serves every stage below, so the sparse symbolic
  // factorization is computed (at most) once for the whole analysis.
  NewtonSolver& solver = solver_for(opts.newton);
  enter_regime(solver, FactorRegime::dc);
  const SolverDeadlineGuard guard(solver, dl);
  const int sym0 = solver.symbolic_factorizations();
  const auto harvest_stats = [&] {
    out.used_sparse = solver.sparse_active();
    out.symbolic_factorizations = solver.symbolic_factorizations() - sym0;
  };

  // Verdict of the most recent stage, for the structured failure record.
  FailureKind last_kind = FailureKind::none;
  const char* last_stage = "plain newton";
  int rescue_attempts = 0;

  // 1. Plain Newton from the zero vector.
  {
    DVector x = out.x;
    const NewtonResult r = solver.solve(ctx, 0.0, {}, x);
    out.newton_iterations += r.iterations;
    if (r.converged) {
      out.converged = true;
      out.x = std::move(x);
      harvest_stats();
      return out;
    }
    last_kind = r.failure;
  }

  // 2. gmin stepping: start with a heavy shunt and relax it geometrically,
  //    warm-starting each stage with the previous solution.
  if (opts.allow_gmin_stepping && !hard_stop(last_kind)) {
    ++rescue_attempts;
    last_stage = "gmin stepping";
    DVector x(static_cast<std::size_t>(circuit_.unknown_count()), 0.0);
    bool ok = true;
    // The floor keeps the loop finite when the user disables the shunt
    // entirely (gmin = 0 would otherwise never fall below 0 * 0.99).
    const double gmin_floor = std::max(opts.newton.gmin * 0.99, 1e-15);
    for (double gmin = 1e-2; gmin >= gmin_floor; gmin /= 10.0) {
      solver.set_gmin(gmin);
      const NewtonResult r = solver.solve(ctx, 0.0, {}, x);
      out.newton_iterations += r.iterations;
      if (!r.converged) {
        ok = false;
        last_kind = r.failure;
        break;
      }
    }
    solver.set_gmin(opts.newton.gmin);
    if (ok) {
      out.converged = true;
      out.used_gmin_stepping = true;
      out.x = std::move(x);
      harvest_stats();
      return out;
    }
  }

  // 3. Source stepping: ramp all independent sources from 0 to 100 %.
  if (opts.allow_source_stepping && !hard_stop(last_kind)) {
    ++rescue_attempts;
    last_stage = "source stepping";
    DVector x(static_cast<std::size_t>(circuit_.unknown_count()), 0.0);
    bool ok = true;
    for (double scale = 0.1; scale <= 1.0 + 1e-12; scale += 0.1) {
      EvalCtx sctx = ctx;
      sctx.source_scale = scale;
      const NewtonResult r = solver.solve(sctx, 0.0, {}, x);
      out.newton_iterations += r.iterations;
      if (!r.converged) {
        ok = false;
        last_kind = r.failure;
        break;
      }
    }
    if (ok) {
      out.converged = true;
      out.used_source_stepping = true;
      out.x = std::move(x);
      harvest_stats();
      return out;
    }
  }

  harvest_stats();
  const std::string detail =
      hard_stop(last_kind) ? std::string("stopped during ") + last_stage
                           : std::string("no convergence (last stage: ") + last_stage + ")";
  out.failure = make_failure(last_kind, "dc", detail,
                             std::numeric_limits<double>::quiet_NaN(),
                             out.newton_iterations, rescue_attempts);
  log_warn("solve_dc: " + out.failure.to_string());
  return out;
}

// ---------------------------------------------------------------------------
// Transient
// ---------------------------------------------------------------------------

namespace {

/// Integrator coefficients for d q / d t ~= a0*q(x_{n+1}) + hist and for
/// device-internal integrals s = s_prev + c0*e_prev + c1*e. For gear2 the
/// history is two-deep: hist = a1*q_n + a2*q_{n-1} (variable-step BDF2).
struct StepCoeffs {
  double a0;
  double a1 = 0.0;  ///< gear2 only
  double a2 = 0.0;  ///< gear2 only
  double c0;
  double c1;
};

StepCoeffs coeffs(IntegMethod m, double h, double h_prev) {
  switch (m) {
    case IntegMethod::backward_euler:
      return {1.0 / h, 0.0, 0.0, 0.0, h};
    case IntegMethod::trapezoidal:
      return {2.0 / h, 0.0, 0.0, h / 2.0, h / 2.0};
    case IntegMethod::gear2: {
      // Variable-step BDF2 from the Lagrange derivative at t_{n+1} over
      // {t_{n+1}, t_n = t_{n+1}-h, t_{n-1} = t_{n+1}-h-h_prev}.
      const double hp = h_prev > 0.0 ? h_prev : h;
      const double a0 = (2.0 * h + hp) / (h * (h + hp));
      const double a1 = -(h + hp) / (h * hp);
      const double a2 = h / (hp * (h + hp));
      // Device-internal integ() states get the BE formula (order 1): their
      // two-deep history lives in the analysis, not in the devices.
      return {a0, a1, a2, 0.0, h};
    }
  }
  return {1.0 / h, 0.0, 0.0, 0.0, h};
}

}  // namespace

TranResult AnalysisEngine::run_tran(const TranOptions& opts, const OpResult* op) {
  TranResult out;
  const std::size_t n = static_cast<std::size_t>(circuit_.unknown_count());

  // Injected allocation failure: exercises the sweep runner's exception
  // isolation boundary (FailureKind::alloc_failure).
  if (USYS_FAULT_POINT("engine.alloc")) throw std::bad_alloc();

  // One deadline budgets the WHOLE transient: initial operating point plus
  // the stepping loop (the dc options' own budget fields are ignored).
  const Deadline dl = Deadline::after_ms(opts.newton.timeout_ms, opts.newton.cancel);

  // --- Initial operating point --------------------------------------------
  OpResult solved;
  if (op == nullptr) solved = run_op_under(budgetless(opts.dc), dl);
  const OpResult& dc = op != nullptr ? *op : solved;
  // Only a point this card solved itself is this card's work.
  out.symbolic_factorizations = solved.symbolic_factorizations;
  out.used_gmin_stepping = dc.used_gmin_stepping;
  out.used_source_stepping = dc.used_source_stepping;
  if (!dc.converged) {
    out.failure = dc.failure;
    out.failure.analysis = "tran";
    out.failure.time = 0.0;
    out.failure.detail = "initial operating point: " + out.failure.detail;
    out.error = out.failure.to_string();
    log_warn(out.error);
    return out;
  }
  out.total_newton_iters += dc.newton_iterations;

  DVector x = dc.x;
  for (const auto& dev : circuit_.devices()) dev->start_transient(x);

  // --- Breakpoints ----------------------------------------------------------
  std::vector<double> breaks;
  for (const auto& dev : circuit_.devices()) dev->breakpoints(breaks);
  breaks.push_back(opts.tstop);
  std::sort(breaks.begin(), breaks.end());
  breaks.erase(std::unique(breaks.begin(), breaks.end(),
                           [](double a, double b) { return std::abs(a - b) < 1e-15; }),
               breaks.end());

  const double dt_init = opts.dt_init > 0 ? opts.dt_init : opts.tstop / 1000.0;
  const double dt_min = opts.dt_min > 0 ? opts.dt_min : opts.tstop * 1e-12;
  const double dt_max = opts.dt_max > 0 ? opts.dt_max : opts.tstop / 50.0;

  NewtonSolver& solver = solver_for(opts.newton);
  enter_regime(solver, FactorRegime::transient);
  const SolverDeadlineGuard guard(solver, dl);
  const int sym0 = solver.symbolic_factorizations();
  const auto harvest_stats = [&] {
    out.used_sparse = solver.sparse_active();
    out.symbolic_factorizations =
        solved.symbolic_factorizations + solver.symbolic_factorizations() - sym0;
  };
  // Every early exit below carries a structured verdict; fail() renders the
  // legacy error string from it so existing log consumers see one line.
  const auto fail = [&](FailureKind kind, std::string detail, double at_t) {
    out.failure = make_failure(kind, "tran", std::move(detail), at_t,
                               out.total_newton_iters);
    out.error = out.failure.to_string();
    log_warn(out.error);
    harvest_stats();
  };

  // Harvest q at the DC point so the first step's history is consistent
  // (charge-only pass: f and the Jacobians are not needed between steps).
  DVector q(n);
  {
    EvalCtx ctx;
    ctx.mode = AnalysisMode::dc;
    solver.harvest_charge(ctx, x, q);
  }
  DVector q_prev = q;
  DVector q_prev2 = q;  // q at t_{n-1}, for gear2
  DVector qdot_prev(n, 0.0);

  out.time.push_back(0.0);
  out.x.push_back(x);

  double t = 0.0;
  double h = dt_init;
  // Accepted-solution history x_n, x_{n-1}, x_{n-2} for the predictors, with
  // the two step sizes between them. `run_pts` counts the accepted points
  // since the DC point or the last breakpoint restart (that point included);
  // history from before a restart is never extrapolated through.
  DVector x_prev = x;
  DVector x_prev2 = x;
  double h_prev = 0.0;
  double h_prev2 = 0.0;
  int run_pts = 1;

  // Per-step scratch, sized once: the step loop allocates nothing but the
  // output rows it appends.
  DVector hist(n), x_new(n), qdot(n);

  const DVector& abstol = circuit_.abstol();

  long attempted_steps = 0;

  while (t < opts.tstop - 1e-15) {
    // Step-ceiling and deadline polls at the step boundary: a budgeted or
    // bounded run always ends with a structured verdict, never a silent
    // truncation and never a hang.
    if (opts.max_steps > 0 && ++attempted_steps > opts.max_steps) {
      fail(FailureKind::max_steps_exceeded,
           str_format("step ceiling (%ld attempted steps) hit", opts.max_steps), t);
      return out;
    }
    if (dl.active() && dl.expired()) {
      fail(dl.exceeded_kind(), "deadline expired at step boundary", t);
      return out;
    }
    h = std::min(h, dt_max);
    h = std::max(h, dt_min);
    // Land exactly on the next breakpoint (waveform corner or tstop).
    for (double b : breaks) {
      if (b > t + 1e-15) {
        if (t + h > b - 1e-15) h = b - t;
        break;
      }
    }
    const double t_new = t + h;
    const bool have_two_points = run_pts >= 2;

    // First step after DC (or after a breakpoint) uses backward Euler: the
    // multistep history (qdot_prev / q_prev2) is unknown or discontinuous.
    IntegMethod method = opts.method;
    if (!have_two_points && method != IntegMethod::backward_euler)
      method = IntegMethod::backward_euler;

    const StepCoeffs sc = coeffs(method, h, h_prev);
    for (std::size_t i = 0; i < n; ++i) {
      switch (method) {
        case IntegMethod::trapezoidal:
          hist[i] = -sc.a0 * q_prev[i] - qdot_prev[i];
          break;
        case IntegMethod::gear2:
          hist[i] = sc.a1 * q_prev[i] + sc.a2 * q_prev2[i];
          break;
        case IntegMethod::backward_euler:
          hist[i] = -sc.a0 * q_prev[i];
          break;
      }
    }

    EvalCtx ctx;
    ctx.mode = AnalysisMode::transient;
    ctx.time = t_new;
    ctx.integ_c0 = sc.c0;
    ctx.integ_c1 = sc.c1;

    // Newton's initial guess: the variable-step quadratic Lagrange
    // extrapolation through x_{n-2}, x_{n-1}, x_n once three points exist,
    // the linear one through two, else x_n. A closer start saves iterations
    // and moves the converged point only within Newton's tolerance, so the
    // step sequence (set by the LTE proxy below) barely changes.
    if (run_pts >= 3) {
      const double h1 = h_prev, h2 = h_prev2;
      const double w0 = (h + h1) * (h + h1 + h2) / (h1 * (h1 + h2));
      const double w1 = -h * (h + h1 + h2) / (h1 * h2);
      const double w2 = h * (h + h1) / (h2 * (h1 + h2));
      for (std::size_t i = 0; i < n; ++i)
        x_new[i] = w0 * x[i] + w1 * x_prev[i] + w2 * x_prev2[i];
    } else if (have_two_points) {
      const double r = h / h_prev;
      for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] + (x[i] - x_prev[i]) * r;
    } else {
      std::copy(x.begin(), x.end(), x_new.begin());
    }

    const NewtonResult nr = solver.solve(ctx, sc.a0, hist, x_new);
    out.total_newton_iters += nr.iterations;
    if (hard_stop(nr.failure)) {
      // Do NOT halve the step on a timeout/cancel verdict — the solve did
      // not fail numerically, the budget ran out; retrying smaller would
      // burn the remaining budget on a doomed bisection.
      fail(nr.failure, "deadline expired in Newton solve", t);
      return out;
    }

    bool accept = nr.converged;
    double lte_ratio = 0.0;
    if (accept && opts.adaptive && have_two_points) {
      // LTE proxy: corrector distance from the *linear* predictor, weighted
      // per unknown. Branch flows are excluded: they are algebraic outputs
      // and ring harmlessly under trapezoidal integration (A-stable, not
      // L-stable), which would otherwise put a floor under the ratio and jam
      // the controller.
      const std::size_t n_lte = static_cast<std::size_t>(circuit_.node_count());
      for (std::size_t i = 0; i < n_lte; ++i) {
        const double pred = x[i] + (h_prev > 0 ? (x[i] - x_prev[i]) * (h / h_prev) : 0.0);
        const double tol =
            opts.lte_reltol * std::max(std::abs(x_new[i]), std::abs(x[i])) + abstol[i];
        lte_ratio = std::max(lte_ratio, std::abs(x_new[i] - pred) / tol);
      }
      if (lte_ratio > 10.0) accept = false;  // gross violation: redo smaller
    }

    if (!accept) {
      ++out.rejected_steps;
      log_debug(str_format("transient: reject at t=%.6e h=%.3e (%s, lte=%.3g, newton_iters=%d)",
                           t, h, nr.converged ? "lte" : "newton", lte_ratio,
                           nr.iterations));
      h *= 0.5;
      if (h < dt_min) {
        fail(FailureKind::step_underflow,
             str_format("h fell below dt_min=%.3e after %s reject", dt_min,
                        nr.converged ? "lte" : "newton"),
             t);
        return out;
      }
      continue;
    }

    // Commit: harvest q(x_new), update integrator history, device states.
    // The histories rotate by swapping buffers, never by copying them.
    solver.harvest_charge(ctx, x_new, q);
    for (std::size_t i = 0; i < n; ++i) qdot[i] = sc.a0 * q[i] + hist[i];
    std::swap(q_prev2, q_prev);
    std::swap(q_prev, q);
    std::swap(qdot_prev, qdot);

    AcceptCtx actx;
    actx.time = t_new;
    actx.integ_c0 = sc.c0;
    actx.integ_c1 = sc.c1;
    actx.x = &x_new;
    for (const auto& dev : circuit_.devices()) dev->accept(actx);

    std::swap(x_prev2, x_prev);
    std::swap(x_prev, x);
    std::swap(x, x_new);
    h_prev2 = h_prev;
    h_prev = h;
    t = t_new;
    ++run_pts;

    // Integration restart at waveform corners: the trapezoidal history
    // derivative (qdot_prev) is discontinuous there, so the next step must
    // fall back to backward Euler with a fresh predictor (matches SPICE's
    // breakpoint handling). Without this the corner step rejects forever.
    for (double b : breaks) {
      if (std::abs(t - b) < 1e-13) {
        run_pts = 1;
        std::fill(qdot_prev.begin(), qdot_prev.end(), 0.0);
        h = std::min(h, dt_init);
        break;
      }
    }

    out.time.push_back(t);
    out.x.push_back(x);

    // Promote warned-once HDL ASSERT firings into a structured failure when
    // asked: the offending point is kept (pushed above) so a post-mortem
    // sees the state that violated the boundary condition.
    if (opts.fail_on_assert) {
      int violations = 0;
      for (const auto& dev : circuit_.devices()) violations += dev->assert_violations();
      if (violations > 0) {
        fail(FailureKind::assert_violation,
             str_format("%d ASSERT site(s) fired", violations), t);
        return out;
      }
    }

    if (opts.adaptive) {
      // Step-size controller: target lte_ratio ~ 0.5, second-order method.
      double grow = 2.0;
      if (lte_ratio > 1e-12) grow = 0.9 * std::pow(0.5 / lte_ratio, 1.0 / 3.0);
      grow = std::clamp(grow, 0.2, 2.0);
      h *= grow;
    } else {
      h = dt_init;
    }
  }

  out.ok = true;
  harvest_stats();
  return out;
}

// ---------------------------------------------------------------------------
// AC
// ---------------------------------------------------------------------------

AcResult AnalysisEngine::run_ac(const AcOptions& opts, const OpResult* op) {
  if (!(opts.frequency_count() <= kMaxAcPoints))
    throw std::invalid_argument(str_format("ac sweep exceeds the cap of %d frequencies",
                                           kMaxAcPoints));
  AcResult out;
  const std::size_t n = static_cast<std::size_t>(circuit_.unknown_count());

  // One deadline budgets the operating point AND the frequency sweep.
  const Deadline dl = Deadline::after_ms(opts.dc.newton.timeout_ms, opts.dc.newton.cancel);
  const auto fail = [&](FailureKind kind, std::string detail, double at_f) {
    out.failure = make_failure(kind, "ac", std::move(detail), at_f);
    out.error = out.failure.to_string();
    log_warn(out.error);
  };

  OpResult solved;
  if (op == nullptr) solved = run_op_under(budgetless(opts.dc), dl);
  const OpResult& dc = op != nullptr ? *op : solved;
  // Only a point this card solved itself is this card's work.
  out.symbolic_factorizations = solved.symbolic_factorizations;
  if (!dc.converged) {
    out.failure = dc.failure;
    out.failure.analysis = "ac";
    out.failure.detail = "operating point: " + out.failure.detail;
    out.error = out.failure.to_string();
    log_warn(out.error);
    return out;
  }

  // Linearize once at the operating point.
  NewtonSolver& solver = solver_for(opts.dc.newton);
  DVector f(n), q(n);
  DMatrix jf, jq;
  EvalCtx ctx;
  ctx.mode = AnalysisMode::dc;
  if (solver.sparse_active()) {
    solver.assemble_sparse(ctx, dc.x, f, q);
  } else {
    solver.stamp(ctx, dc.x, f, q, jf, jq);
  }

  // Complex excitation vector from the devices' AC sources.
  ZVector rhs(n, {0.0, 0.0});
  for (const auto& dev : circuit_.devices()) dev->ac_rhs(rhs);

  const std::vector<double> freqs = opts.frequencies();
  out.freq.reserve(freqs.size());
  out.x.reserve(freqs.size());
  if (solver.sparse_active()) {
    // Sparse sweep: (Jf + jw Jq) shares the real pattern, so the complex LU
    // runs its symbolic factorization once and numerically refactors per
    // frequency point.
    const MnaPattern& pattern = *solver.pattern();
    const std::vector<double>& jfv = solver.sparse_jf();
    const std::vector<double>& jqv = solver.sparse_jq();
    ZSparseLu zlu;
    zlu.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
    if (dl.active()) zlu.set_deadline(&dl);
    std::vector<std::complex<double>> avals(pattern.nonzeros());
    for (double fr : freqs) {
      if (dl.active() && dl.expired()) {
        fail(dl.exceeded_kind(), "deadline expired in frequency sweep", fr);
        return out;
      }
      const std::complex<double> jw(0.0, 2.0 * kPi * fr);
      for (std::size_t k = 0; k < avals.size(); ++k)
        avals[k] = std::complex<double>(jfv[k], 0.0) + jw * jqv[k];
      ZVector b = rhs;
      try {
        zlu.factor(avals);
        zlu.solve(b);
      } catch (const SingularMatrixError&) {
        fail(FailureKind::singular_matrix,
             str_format("singular system at f=%.6e Hz", fr), fr);
        return out;
      } catch (const DeadlineError& e) {
        fail(e.kind(), "deadline expired in factor/solve", fr);
        return out;
      }
      out.freq.push_back(fr);
      out.x.push_back(std::move(b));
    }
    out.used_sparse = true;
    out.symbolic_factorizations += zlu.symbolic_factorizations();
  } else {
    // One scratch matrix for the whole sweep: every entry is rewritten per
    // frequency before lu_solve overwrites it.
    ZMatrix a(n, n);
    for (double fr : freqs) {
      if (dl.active() && dl.expired()) {
        fail(dl.exceeded_kind(), "deadline expired in frequency sweep", fr);
        return out;
      }
      const std::complex<double> jw(0.0, 2.0 * kPi * fr);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          a(r, c) = std::complex<double>(jf(r, c), 0.0) + jw * jq(r, c);
        }
      }
      ZVector b = rhs;
      try {
        lu_solve(a, b);
      } catch (const SingularMatrixError&) {
        fail(FailureKind::singular_matrix,
             str_format("singular system at f=%.6e Hz", fr), fr);
        return out;
      }
      out.freq.push_back(fr);
      out.x.push_back(std::move(b));
    }
  }
  out.ok = true;
  return out;
}

}  // namespace usys::spice
