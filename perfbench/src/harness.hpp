// Shared plumbing of the perfbench workloads: run options, the raw run
// record that perfbench/run.py turns into metrics, clocks,
// and the layer decompositions every in-process workload reuses.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "spice/netlist.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string source_id;  ///< git SHA or source-tree hash (from run.py)
};

using Clock = std::chrono::steady_clock;

/// CPU time of this process, all threads, in seconds. Time the host gives
/// to other guests (steal) is not in it.
double process_cpu_s();

/// One instant on both clocks, taken where a job starts.
struct Stamp {
  Clock::time_point wall = Clock::now();
  double cpu_s = process_cpu_s();
};

/// Everything one run measured, as raw samples: run.py computes medians,
/// tails and rates from these, never the workload code.
struct RunRecord {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failure_notes;  ///< the first few, for the log
  std::vector<double> setup_s;             ///< one sample per set-up
  std::vector<double> job_ms;              ///< untraced jobs, wall time
  /// CPU time per untraced job in ms: one sample per job, or on server_mix
  /// one per 50 ms of traffic (its CPU time over the requests it completed).
  std::vector<double> job_cpu_ms;
  double wall_s = 0.0;                     ///< wall time of the untraced loop
  std::vector<double> traced_job_ms;       ///< jobs of the traced phase
  /// Named scalars: counts, shares and derived layer figures.
  std::vector<std::pair<std::string, double>> values;
  int threads = 1;
  int clients = 0;

  /// Counts `count` operations of which `failed_ops` failed with `why`.
  void ops(long count, long failed_ops, const std::string& why);
  /// Counts one operation; a false `ok` counts it failed with `why`.
  void op(bool ok, const std::string& why) { ops(1, ok ? 0 : 1, why); }
  void value(const std::string& name, double v) { values.emplace_back(name, v); }
  /// Ends an untraced job that began at `start`: appends its wall time to
  /// job_ms and its CPU time to job_cpu_ms.
  void job_done(const Stamp& start);
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Calls `job` until `seconds` of wall time have passed (at least once) and
/// returns the elapsed wall seconds.
double run_for(double seconds, const std::function<void()>& job);

/// run_for with one set-up sample before every job: `make` is timed and its
/// duration in seconds appended to `setup_s`, so the set-up samples span
/// the run as the jobs do. Returns the elapsed wall seconds less the time
/// spent in `make`.
double run_for_with_setup(double seconds, std::vector<double>& setup_s,
                          const std::function<void()>& make, const std::function<void()>& job);

/// api::Session(text) split along the layers it crosses, each call under
/// its own span: netlist.parse (parser + parse), circuit.bind (bind_all +
/// mna_pattern) and lint.preflight (an api::Session on the bound circuit,
/// whose constructor builds the AnalysisEngine).
struct DecomposedSession {
  explicit DecomposedSession(const std::string& text);

  /// api::Session::run on the netlist's cards with default options, as
  /// Session(text).run() does. Each analysis gets an engine.run_op /
  /// run_tran / run_ac span, from the previous analysis callback (or the
  /// call) to its own, carrying the outcome's engine counts.
  usys::api::JobResult run();

  usys::spice::Netlist net;
  std::unique_ptr<usys::api::Session> session;  ///< borrows *net.circuit
};

/// Bit-for-bit equality of two outcomes' solution vectors.
bool same_bits(const usys::api::AnalysisOutcome& a, const usys::api::AnalysisOutcome& b);

/// Times the per-iteration Newton kernel of `circuit` at solution `x`,
/// on the backend the engine's solver selects for this circuit: dense
/// (solver.stamp, matrix.lu_solve, and hdl.evaluate on `hdl_device` when
/// the circuit has it) or sparse (mna.assemble, sparse_lu.analyze /
/// factor / refactor / solve). `a0` is the integration coefficient of the
/// Newton matrix (0 = DC). Each probe is one span carrying its repetition
/// count (run.py divides) and `job_span`, the id of the api.session_job
/// span whose final state it probes.
void probe_kernel(usys::spice::Circuit& circuit, const usys::DVector& x, double time,
                  double a0, const std::string& hdl_device, long job_span);

/// Resident-set high-water mark of this process in MiB.
double peak_rss_mb();

// --- workloads ---------------------------------------------------------------
void run_fig3_tran(const RunOptions& opts, RunRecord& rec);
void run_array_1k(const RunOptions& opts, RunRecord& rec);
void run_mc_sweep(const RunOptions& opts, RunRecord& rec);
void run_server_mix(const RunOptions& opts, RunRecord& rec);

}  // namespace perfbench
