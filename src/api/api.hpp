// usys::api — the one job-dispatch facade shared by the usim CLI and the
// simulation server.
//
// Before this layer, tools/usim.cpp carried three near-identical dispatch
// blocks (single-run op/tran/ac, plus a fourth copy inside the sweep job)
// and the server would have needed a fifth. The facade owns that logic once:
//
//   Session   — a parsed + bound + preflighted circuit with its
//               AnalysisEngine; the unit the server's warm cache stores.
//               Constructing one pays parse/bind/pattern-compile; running
//               more jobs on it pays only the analyses.
//   JobRequest — what varies per submission: parameter overrides
//               ("R1.r=50" against the bound circuit, no re-parse),
//               analysis-card substitution, deadline/cancel options.
//   JobResult — per-analysis outcomes plus the provenance counters
//               (parsed/bound/rebound, symbolic factorization count) the
//               server's /stats and the warm-cache tests key on.
//   plan_sweep / run_sweep — the whole sweep job (spec, seed and name
//               rules, grid, points, stats) for usim and the server alike.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "spice/engine.hpp"
#include "spice/netlist.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"

namespace usys::api {

/// Stable 64-bit FNV-1a hash (16 hex chars) of a job's circuit identity:
/// the netlist text plus the hdl-mode preset (the preset changes which
/// devices instantiate, so it is part of identity). The server keys its
/// warm-engine cache on this.
std::string content_hash(const std::string& netlist_text, const std::string& hdl_mode = "");

/// The full-device-set parse every netlist session starts from. `point`
/// resolves value placeholders in place (spice::NetlistParser::parse). A
/// circuit-construction conflict during the parse (a duplicate device name)
/// is a netlist problem like a malformed card: it throws NetlistError.
spice::Netlist parse_netlist(const std::string& text, const std::string& hdl_mode,
                             const spice::SweepPoint* point = nullptr);

/// One device-parameter delta applied to a bound circuit via
/// Device::set_param — the warm path for "same circuit, new value" jobs.
struct ParamOverride {
  std::string device;  ///< netlist device name, matched verbatim ("XK3")
  std::string param;   ///< lower-case parameter key ("r", "k", "dc", ...)
  double value = 0.0;
};

/// Parses "DEVICE.PARAM=value" (value in SPICE number syntax, engineering
/// suffixes included). False on malformed specs; `out` untouched then.
bool parse_override(const std::string& spec, ParamOverride& out);

/// Per-job execution knobs — the CLI flags and the server's request fields
/// funnel into the same struct.
struct JobOptions {
  double timeout_ms = 0.0;    ///< wall-clock budget PER ANALYSIS CARD; 0 = off
  /// Cooperative cancel (non-owning; must outlive the run). The server
  /// points this at the per-job token its disconnect/deadline monitor fires.
  const CancelToken* cancel = nullptr;
  /// Newton iteration-limit multiplier (sweep retries escalate this).
  int max_iters_scale = 1;
};

/// One job: overrides + options + (optionally) replacement analysis cards.
/// With `analyses` empty the session's own netlist cards run (or a default
/// .op when the netlist declared none) — the usim single-run contract.
struct JobRequest {
  std::vector<ParamOverride> overrides;
  JobOptions options;
  std::vector<spice::AnalysisCard> analyses;
};

/// Outcome of one analysis card. Exactly one of op/tran/ac is meaningful,
/// selected by `kind`.
struct AnalysisOutcome {
  spice::AnalysisCard::Kind kind = spice::AnalysisCard::Kind::op;
  bool ok = false;
  spice::OpResult op;
  spice::TranResult tran;
  spice::AcResult ac;
  /// The active result's failure record (ok() when the analysis succeeded).
  const FailureInfo& failure() const noexcept;
  /// Human-readable failure summary ("" when ok).
  std::string error() const;
};

struct JobResult {
  bool ok = false;
  /// The usim exit-code contract: 0 = all analyses succeeded, 1 = an
  /// analysis failed, 2 = bad request (unknown override device/parameter),
  /// 3 = deadline/cancel.
  int exit_code = 0;
  std::string error;    ///< summary of the first failure ("" when ok)
  FailureInfo failure;  ///< structured form of the same
  /// One entry per analysis that RAN (the job stops at the first failure).
  std::vector<AnalysisOutcome> analyses;

  // What this job actually paid — the warm-cache accounting /stats exposes.
  bool parsed = false;   ///< a netlist parse happened for this job
  bool bound = false;    ///< a fresh bind + pattern compile happened
  bool rebound = false;  ///< rebind() ran (parameter-override delta)
  int symbolic_factorizations = 0;  ///< summed over the job's analyses
};

/// Uniform tabular view of a finished analysis: .op is one row of node
/// efforts, .tran is time + per-node effort columns, .ac is frequency +
/// per-node dB/deg column pairs. The CLI's table/CSV writer and the
/// server's wire frames extract IDENTICAL columns and rows through this, so
/// the two transports can never drift. row_at borrows `outcome` and
/// `circuit`; both must outlive the view.
struct SeriesView {
  std::vector<std::string> columns;
  std::size_t rows = 0;
  std::function<std::vector<double>(std::size_t)> row_at;
};
SeriesView series_view(const AnalysisOutcome& outcome, spice::Circuit& circuit);

/// Fired after EACH analysis completes (ok or failed) with its index in
/// JobResult::analyses. CLI table printing and server frame streaming both
/// hang off this; a job with no callback just accumulates results.
using AnalysisCallback = std::function<void(std::size_t index, const AnalysisOutcome&)>;

/// A circuit admitted for jobs: parse + bind + static preflight happen at
/// construction, then any number of run() calls reuse the warm engine.
/// Non-copyable; the server wraps instances in shared_ptr and serializes
/// access per session (one job at a time per engine).
class Session {
 public:
  /// Parses `netlist_text` (full device set: spice built-ins + the core
  /// transducer/HDL cards), binds, and preflights. Throws
  /// spice::NetlistError on malformed netlists — including circuit
  /// construction conflicts, which are rethrown as line-0 netlist errors
  /// (the usim exit-2 contract).
  explicit Session(const std::string& netlist_text, const std::string& hdl_mode = "");

  /// Adopts an already parsed netlist (run_sweep_point's warm templates are
  /// parsed with their placeholders resolved); `hash` becomes hash().
  /// Binds and preflights like the text constructor.
  Session(spice::Netlist net, std::string hash);

  /// Borrows an externally built circuit (tests, embedding); no netlist
  /// text, no analysis cards, hash() is "". The circuit must outlive the
  /// session.
  explicit Session(spice::Circuit& circuit);

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& hash() const noexcept;
  const std::string& title() const noexcept;
  spice::Circuit& circuit() noexcept;
  spice::AnalysisEngine& engine() noexcept;
  /// Analysis cards the netlist declared (empty for borrowed circuits).
  const std::vector<spice::AnalysisCard>& cards() const noexcept;

  /// Runs one job: applies overrides (rebind), runs each analysis card in
  /// order (stopping at the first failure), restores override baselines
  /// (rebind again), and reports per-analysis outcomes + provenance. The
  /// first run on a fresh session reports parsed/bound = true (it pays the
  /// construction cost); warm reruns report both false and — for the same
  /// analysis regime — zero extra symbolic factorizations.
  JobResult run(const JobRequest& request = {}, const AnalysisCallback& on_analysis = {});

  /// Whether the engine currently holds warm solver state.
  bool warm() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Substitutes every `{name}` placeholder in `text` with the point's value
/// for `name`, printed with 17 significant digits through `std::to_chars`
/// (append_g17, byte-identical to printf's `%g` at precision 17) so the
/// substituted netlist round-trips the exact double. The text half of the
/// sweep-point contract: the same point always produces the same netlist
/// bytes.
std::string substitute_params(std::string text, const spice::SweepPoint& point);

/// The per-point sweep job shared by `usim --sweep` and the server's sweep
/// op: runs the netlist's analysis cards for `point` and distills scalar
/// metrics (per-node op efforts / final transient values / last-point AC
/// magnitudes; min/max/mean aggregates above 16 nodes). `attempt` > 0 is a
/// retry of a failed point — Newton iteration limits double per attempt so
/// a marginal point gets a genuinely stronger solve, not a replay. An .ac
/// card runs as a one-frequency card at its last grid frequency, the only
/// row a metric reads: the dense backend gives that row's exact bits, the
/// sparse one (which pivots there instead of at f_start) may differ in the
/// last bits, and a system singular only at an earlier frequency passes.
///
/// Two paths, one outcome. When every `{name}` in `text` is a value
/// placeholder — a whole R/C/L value, V/I DC value or X-card `key={name}`
/// token whose device exposes that key through set_param — the calling
/// thread keeps one warm Session for the template and runs each point as
/// one Session::run with parameter overrides: parse, HDL compile, bind,
/// pattern compile and structural preflight are paid once per thread, not
/// per point. Any other template (a placeholder inside a token, in a node
/// or device name, a waveform, a directive or `.array`) takes the text
/// path: substitute_params, then a fresh Session. A point on a warm
/// template also takes the text path when a value is non-finite, a
/// set_param refuses it, or the parameter lint rejects it, so its outcome —
/// metrics, error text, failure kind, or exception — is bit-identical to
/// the text path's. The cache holds one template Session per thread (the
/// memory bound: one extra circuit per sweep worker, for the life of the
/// process, whose SweepRunner workers outlive each batch); a point that
/// throws discards it. Exceptions propagate; run this under SweepRunner, whose
/// isolation boundary converts them to per-point failures.
spice::SweepOutcome run_sweep_point(const std::string& text,
                                    const spice::SweepPoint& point,
                                    const std::string& hdl_mode,
                                    const JobOptions& options, int attempt);

/// Whether the calling thread's run_sweep_point cache holds a warm Session
/// for (text, hdl_mode) — i.e. whether its points take the override path.
bool sweep_template_warm(const std::string& text, const std::string& hdl_mode = "");

/// The most Monte Carlo draws per grid combination `usim --mc` and the
/// wire's "mc" accept.
inline constexpr int kMaxMcSamples = 10'000'000;

/// A sweep job as `usim --sweep/--mc` and the server's sweep op receive it.
struct SweepRequest {
  std::string netlist;
  std::vector<std::string> specs;  ///< "name=spec" (spice::parse_sweep_entry)
  int mc = 1;                      ///< draws per grid combination, <= kMaxMcSamples
  std::string seed = "0";          ///< decimal digits, at most 2^64-1
  std::string hdl_mode;
};

/// A validated sweep job. Nothing is materialised yet: point_count() is
/// known before the grid exists, so a caller can cap a job's size first.
struct SweepPlan {
  std::string netlist;
  std::string hdl_mode;
  std::vector<spice::SweepAxis> axes;
  std::vector<spice::ParamDist> dists;  ///< .param cards, request specs merged in
  std::vector<spice::MeasureSpec> measures;
  spice::McOptions mc;

  /// Exact size of the grid run_sweep will build (saturates at SIZE_MAX).
  std::size_t point_count() const;
};

/// Turns a request into a plan, applying the rules both front ends share:
/// the netlist's .param/.measure pre-pass (its NetlistError text is the
/// rejection), the spec grammar, no spec named like an .array `{i}`/`{i±N}`
/// placeholder, a request dist replacing the netlist dist of the same name,
/// no name that is both an axis and a dist, the strict seed grammar
/// (decimal digits only, no sign or whitespace, at most 2^64-1) and a
/// non-empty grid. False with `error` set on the first violation: a usage
/// error (usim exit 2, server bad-request).
bool plan_sweep(const SweepRequest& request, SweepPlan& plan, std::string& error);

/// A finished sweep: outcomes[i] is grid[i]'s, and `stats` holds every
/// executed point plus the run identity (seed, size, mc, measures, shard).
struct SweepRun {
  std::vector<spice::SweepPoint> grid;
  std::vector<spice::SweepOutcome> outcomes;
  spice::StatsRun stats;
};

/// Builds the plan's grid and runs each point through run_sweep_point on a
/// SweepRunner of `threads` workers (0 = hardware concurrency), under
/// `options` (retries, checkpoint, resume, shard) and `job` (timeout,
/// cancel). Throws what SweepRunner::run throws.
SweepRun run_sweep(const SweepPlan& plan, int threads,
                   const spice::SweepOptions& options, const JobOptions& job);

// One-shot analyses: each runs on a fresh engine (fresh solver, fresh pivot
// order, per-analysis statistics). Prefer a held Session (or
// spice::AnalysisEngine) for repeated runs.
spice::OpResult operating_point(spice::Circuit& circuit, const spice::DcOptions& opts = {});
spice::TranResult transient(spice::Circuit& circuit, const spice::TranOptions& opts);
spice::AcResult ac_sweep(spice::Circuit& circuit, const spice::AcOptions& opts);

}  // namespace usys::api
