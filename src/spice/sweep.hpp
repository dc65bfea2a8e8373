// SweepRunner — batch parameter-grid execution over a thread pool.
//
// Fans a cartesian parameter grid (e.g. transducer gap x drive amplitude x
// array size) across workers; a caller-supplied job runs each grid point on
// worker-local state (no sharing between workers), so the result vector is
// deterministic: results[i] always corresponds to grid[i], whatever the
// execution interleaving. Backs `usim --sweep` and bench_array_scaling.
// The workers are the process-lifetime ThreadPool::shared()
// (common/thread_pool.hpp): they park between batches instead of exiting,
// so worker-local state outlives a batch. api::run_sweep_point, the job
// every front end uses, keeps one warm Session per worker thread for a
// value-only template and runs each point as parameter overrides on it,
// with outcomes bit-identical to building the point's circuit afresh
// (api/api.hpp); a later batch on the same template starts warm.
//
// Fault tolerance (SweepOptions): a failed point records a structured
// FailureInfo and never takes the batch down; failed points can be retried
// with an attempt counter the job uses to escalate its rescue options;
// progress can be journaled to a checkpoint file (spice/checkpoint.hpp) and
// resumed — completed points are restored bit-identically and only
// unfinished points re-run; a deterministic shard filter (k of n) splits one
// grid across processes whose checkpoint files merge by concatenation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace usys::spice {

/// One sweep dimension: a named list of values.
struct SweepAxis {
  std::string name;
  std::vector<double> values;

  /// n evenly spaced values over [lo, hi] (n == 1 yields just lo).
  static SweepAxis linspace(std::string name, double lo, double hi, int n);
};

/// One grid point: (name, value) per axis, in axis order.
struct SweepPoint {
  std::vector<std::pair<std::string, double>> params;

  /// Value of a named parameter; throws std::out_of_range if absent.
  double value(const std::string& name) const;
};

/// Cartesian product of the axes, last axis fastest (row-major).
std::vector<SweepPoint> sweep_grid(const std::vector<SweepAxis>& axes);

/// One statistical parameter: a constant, a tolerance distribution, or a
/// corner list. Declared by `.param <name> dist=...` netlist cards or
/// `--sweep name=dist(...)` CLI specs (docs/sweeps.md).
struct ParamDist {
  enum class Kind {
    constant,  ///< fixed value `a` at every point
    normal,    ///< N(a, b^2) drawn per point
    uniform,   ///< U[a, b) drawn per point
    corner,    ///< enumerate `values` as a grid axis (cartesian with others)
  };
  std::string name;
  Kind kind = Kind::constant;
  double a = 0.0;  ///< constant value / mu / lo
  double b = 0.0;  ///< sigma / hi
  std::vector<double> values;  ///< corner values

  /// True for kinds that consume an RNG draw (normal, uniform).
  bool is_random() const noexcept {
    return kind == Kind::normal || kind == Kind::uniform;
  }
};

/// Parses a distribution spec: "normal(mu,sigma)", "uniform(lo,hi)",
/// "corner(v1,v2,...)" or a plain SPICE number (constant). Numbers accept
/// engineering suffixes (1k, 0.1u). Returns nullopt on malformed input
/// (optionally describing why in *error).
std::optional<ParamDist> parse_dist_spec(const std::string& name,
                                         const std::string& spec,
                                         std::string* error = nullptr);

/// One parsed `--sweep name=spec` entry: either a grid axis
/// ("name=lo:hi:n" or "name=v1,v2,...") or a distribution
/// ("name=normal(mu,sigma)" etc — anything parse_dist_spec accepts with a
/// '(' in it). Shared by usim and the server so both front ends accept the
/// same spec grammar.
struct SweepEntry {
  bool is_dist = false;
  SweepAxis axis;   ///< valid when !is_dist
  ParamDist dist;   ///< valid when is_dist
};

/// Parses "name=spec". Returns nullopt on malformed input (optionally
/// describing why in *error).
std::optional<SweepEntry> parse_sweep_entry(const std::string& arg,
                                            std::string* error = nullptr);

/// Monte Carlo / corner controls for mc_grid.
struct McOptions {
  std::uint64_t seed = 0;  ///< whole-run RNG seed (--seed)
  int samples = 1;         ///< Monte Carlo draws per grid combination (--mc)
};

/// Builds the full statistical grid: cartesian product of the explicit
/// axes and every corner() distribution (axes slowest, corners in
/// declaration order, the MC draw index fastest), replicated
/// max(1, mc.samples) times. Constant params take their fixed value at
/// every point; normal/uniform params are drawn per point from the
/// counter-based RNG keyed on (mc.seed, global point index, name hash) —
/// see common/rng.hpp — so the grid is identical no matter how it is later
/// threaded, sharded, or resumed, and any single point can be rebuilt in
/// isolation. With no axes and no dists the grid has mc.samples points
/// (all-empty params) so a plain netlist can still be MC-replicated.
std::vector<SweepPoint> mc_grid(const std::vector<SweepAxis>& axes,
                                const std::vector<ParamDist>& dists,
                                const McOptions& mc);

/// What one grid point produced: a flat list of named scalar metrics, or an
/// error. Metric names should be identical across points so results
/// tabulate into columns.
struct SweepOutcome {
  bool ok = false;
  /// Human-readable failure text. For exceptions escaping the job this is
  /// exactly e.what() (stable for existing callers); analysis-level
  /// failures typically carry failure.to_string().
  std::string error;
  std::vector<std::pair<std::string, double>> metrics;
  /// Structured failure when ok is false. Jobs that run analyses should copy
  /// the analysis FailureInfo in; exceptions captured at the isolation
  /// boundary become alloc_failure (std::bad_alloc) or internal_error.
  FailureInfo failure;
  /// How many times the job ran for this point (1 + retries used);
  /// 0 for restored or skipped points.
  int attempts = 0;
  /// Outcome came from a resume checkpoint — the job did not run.
  bool restored = false;
  /// Point belongs to another shard — the job did not run here.
  bool skipped = false;
};

/// Fault-tolerance controls for SweepRunner::run.
struct SweepOptions {
  /// Re-run a failed point up to this many extra times. The job receives the
  /// attempt number (0 = first run) and can escalate: more Newton
  /// iterations, the full rescue ladder, a smaller initial step.
  int retries = 0;
  /// Journal every finished point to this JSONL checkpoint file (appended,
  /// flushed per point — see spice/checkpoint.hpp). Empty = no journal.
  std::string checkpoint_path;
  /// Restore previously completed points from this checkpoint before
  /// running: points recorded ok (with matching parameters) are restored
  /// bit-identically and skipped; failed or missing points run normally.
  /// Empty = fresh start.
  std::string resume_path;
  /// Deterministic shard filter: run only grid indices i with
  /// i % shard_count == shard_index - 1 (shard_index is 1-based). Both 0 =
  /// no sharding. Off-shard points are marked skipped, not failed.
  int shard_index = 0;
  int shard_count = 0;
};

/// True when `index` belongs to shard `shard_index` of `shard_count`
/// (1-based shard_index; shard_count <= 1 owns everything).
bool shard_owns(std::size_t index, int shard_index, int shard_count) noexcept;

/// Shard-unique output path: inserts ".shard<k>of<n>" before the extension
/// ("out.csv" -> "out.shard1of2.csv"; no extension appends the suffix).
/// Identity when shard_count <= 1. Per-shard result files (sweep CSV,
/// stats JSONL) derive their names through this so concurrent shards
/// pointed at the same path never clobber each other.
std::string shard_suffixed_path(const std::string& path, int shard_index,
                                int shard_count);

class SweepRunner {
 public:
  /// The per-point job: run the point's analyses on worker-local state (a
  /// fresh circuit, or a thread-local warm Session) and distill scalar
  /// metrics. Exceptions are captured into the point's outcome — they fail
  /// the point, not the batch.
  using Job = std::function<SweepOutcome(const SweepPoint&)>;
  /// Attempt-aware job for retry escalation: attempt is 0 on the first run,
  /// 1..retries on re-runs of a failed point.
  using RetryJob = std::function<SweepOutcome(const SweepPoint&, int attempt)>;

  /// threads: 0 = auto (hardware concurrency), otherwise exactly that many
  /// workers (including the calling thread). 1 runs every point on the
  /// calling thread and never touches the shared pool.
  explicit SweepRunner(int threads = 0);

  int thread_count() const noexcept { return threads_; }

  /// Runs `job` for every point of `grid` across the pool. results[i] is
  /// grid[i]'s outcome. Safe to call from several threads at once (the
  /// batches take turns on the pool) and from inside a job (the inner
  /// batch runs inline on that job's thread).
  std::vector<SweepOutcome> run(const std::vector<SweepPoint>& grid, const Job& job) const;

  /// Fault-tolerant run: retry escalation, checkpoint journal, resume, and
  /// shard filtering per `opts`. Throws std::runtime_error when the
  /// checkpoint file cannot be opened or the resume file cannot be read.
  std::vector<SweepOutcome> run(const std::vector<SweepPoint>& grid, const RetryJob& job,
                                const SweepOptions& opts) const;

 private:
  int threads_;
};

}  // namespace usys::spice
