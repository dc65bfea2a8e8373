// Analyses: .op (DC), .tran (adaptive transient), .ac (small-signal sweep).
//
// These mirror the SPICE analysis domains the paper relies on ("FE and SPICE
// simulators present analogies concerning the analysis types they can
// perform: static-dc, harmonic-ac, transient-transient").
//
// This header holds the option/result vocabulary only. Callers run analyses
// through the usys::api facade (api/api.hpp: api::operating_point /
// api::transient / api::ac_sweep), or hold a spice::AnalysisEngine /
// api::Session for repeated runs on one circuit (sweeps, batches, the
// simulation server).
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "spice/solver.hpp"

namespace usys::spice {

// ---------------------------------------------------------------------------
// Operating point
// ---------------------------------------------------------------------------

struct OpResult {
  bool converged = false;
  DVector x;
  int newton_iterations = 0;
  bool used_sparse = false;
  int symbolic_factorizations = 0;  ///< see NewtonResult
  bool used_gmin_stepping = false;    ///< rescue ladder: gmin continuation won
  bool used_source_stepping = false;  ///< rescue ladder: source ramp won
  /// Structured failure when converged is false (kind carries the LAST
  /// stage's verdict; rescue_attempts counts the ladder strategies tried:
  /// gmin stepping and source stepping each count one). ok() when converged.
  FailureInfo failure;

  /// Effort at a node id (ground reads 0).
  double at(int node) const { return node < 0 ? 0.0 : x.at(static_cast<std::size_t>(node)); }
};

// ---------------------------------------------------------------------------
// Transient
// ---------------------------------------------------------------------------

struct TranOptions {
  double tstop = 1e-3;
  double dt_init = 0.0;     ///< 0 = tstop/1000
  double dt_min = 0.0;      ///< 0 = tstop*1e-12
  double dt_max = 0.0;      ///< 0 = tstop/50
  IntegMethod method = IntegMethod::trapezoidal;
  bool adaptive = true;     ///< LTE-based step control; false = fixed dt_init
  double lte_reltol = 1e-4;
  /// Hard ceiling on attempted steps (accepted + rejected). Hitting it ends
  /// the run with FailureKind::max_steps_exceeded and the points computed so
  /// far — a structured verdict, not silent truncation. <= 0 disables.
  long max_steps = 20'000'000;
  /// Fail the run with FailureKind::assert_violation as soon as an accepted
  /// step leaves any device with a fired HDL ASSERT site. Default off: the
  /// historical behavior (warn and keep integrating) is often what a
  /// survivability study wants; batch drivers turn this on to get a
  /// machine-readable verdict instead.
  bool fail_on_assert = false;
  /// newton.timeout_ms / newton.cancel budget the WHOLE transient including
  /// the initial operating point (the dc options' own budget fields are
  /// ignored inside run_tran).
  NewtonOptions newton{.max_iters = 50, .reltol = 1e-6, .gmin = 1e-12};
  DcOptions dc;             ///< options for the initial operating point
};

struct TranResult {
  bool ok = false;
  /// Human-readable failure summary; always failure.to_string() when the
  /// run failed (kept as a string for existing callers and logs).
  std::string error;
  /// Structured failure when ok is false: step_underflow,
  /// max_steps_exceeded, timeout, cancelled, assert_violation, or the
  /// initial operating point's failure. failure.time is the transient time
  /// reached. ok() when the run succeeded.
  FailureInfo failure;
  std::vector<double> time;
  std::vector<DVector> x;          ///< accepted solutions, one per time point
  int total_newton_iters = 0;
  int rejected_steps = 0;
  bool used_gmin_stepping = false;    ///< initial OP needed the gmin ladder
  bool used_source_stepping = false;  ///< initial OP needed the source ramp
  bool used_sparse = false;
  /// Full (pivot-searching) sparse factorizations of the transient's own
  /// Newton iterations across ALL timesteps — 1 in the steady state, since
  /// the pattern (and normally the pivot order) is fixed for the whole run —
  /// plus those of the initial operating point when the run solved it
  /// itself (a handed-over point counts toward the card that solved it).
  int symbolic_factorizations = 0;

  // Accessor contract (all three): a negative `unknown` is the ground
  // reference and reads 0.0; an `unknown` at or beyond the circuit's
  // unknown count throws std::out_of_range (as does an out-of-range point
  // index k). These are hard guarantees, not incidental clamping.

  /// Time series of one unknown (node effort or branch flow), one value per
  /// accepted point.
  std::vector<double> signal(int unknown) const;
  /// Value of an unknown at the k-th accepted point.
  double at(std::size_t k, int unknown) const;
  /// Linear interpolation of an unknown at arbitrary time t. Out-of-range
  /// times clamp to the nearest accepted point: t at or before the first
  /// point returns the first value, t at or after the last returns the last
  /// value. With no accepted points the result is 0.0; a NaN t returns NaN.
  double sample(double t, int unknown) const;
};

// ---------------------------------------------------------------------------
// AC (small-signal) sweep
// ---------------------------------------------------------------------------

enum class SweepKind { linear, decade };

struct AcOptions {
  SweepKind sweep = SweepKind::decade;
  double f_start = 1.0;
  double f_stop = 1e6;
  int points = 100;        ///< total (linear) or per decade (decade)
  DcOptions dc;

  /// How many frequencies the sweep visits: 1 when f_start == f_stop, else
  /// max(2, points) linear or max(2, ceil(decades * points) + 1) per decade.
  /// A double, so a card can be held against kMaxAcPoints before any
  /// integer stores the count.
  double frequency_count() const noexcept;

  /// The frequencies themselves, f_start first and f_stop's grid point
  /// last. run_ac visits exactly these, so a card with
  /// f_start == f_stop == frequencies().back() solves the same double as
  /// this card's last row (how a sweep point runs only that row). Call it
  /// only on a card within kMaxAcPoints.
  std::vector<double> frequencies() const;
};

/// The most frequencies one .ac sweep visits; a longer card is a netlist
/// error, and run_ac refuses a longer AcOptions before it allocates.
inline constexpr int kMaxAcPoints = 1'000'000;

struct AcResult {
  bool ok = false;
  /// Human-readable failure summary (failure.to_string() on failure).
  std::string error;
  /// Structured failure when ok is false; failure.time carries the
  /// frequency for per-point failures (singular system).
  FailureInfo failure;
  std::vector<double> freq;
  std::vector<ZVector> x;  ///< complex solution per frequency
  bool used_sparse = false;
  /// Full complex symbolic factorizations across the whole sweep (the
  /// frequency loop refactors numerically on the fixed pattern), plus the
  /// real ones of an operating point the sweep solved itself.
  int symbolic_factorizations = 0;

  // Accessor contract (all three), the same as TranResult's: a negative
  // `unknown` is the ground reference and reads 0; an `unknown` at or
  // beyond the circuit's unknown count, or a frequency index k past the
  // sweep, throws std::out_of_range.

  /// Complex response of an unknown at the k-th frequency.
  std::complex<double> at(std::size_t k, int unknown) const;
  /// |H| in dB at point k for unknown.
  double magnitude_db(std::size_t k, int unknown) const;
  /// Phase in degrees.
  double phase_deg(std::size_t k, int unknown) const;
};

}  // namespace usys::spice
