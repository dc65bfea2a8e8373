// usim — command-line netlist simulator (the "SPICE" of this repository).
//
//   usim <netlist.cir> [--csv=<path>] [--sweep <name>=<spec>]... [--mc=N]
//        [--seed=S] [--stats-out=<path>] [--threads=N]
//        [--set <DEV.PARAM=value>]... [--hdl-mode=<mode>] [--quiet] [--help]
//   usim --merge-stats=<out.jsonl> <shard.jsonl>...
//   usim --serve=<socket> [--serve-workers=N] [--serve-queue=N] [--serve-cache=N]
//   usim --client=<socket> <netlist.cir> [--set ...] [--timeout=<ms>] [--no-cache]
//   usim --client=<socket> --stats | --ping | --shutdown
//
// Reads a SPICE-style netlist (including the transducer X-cards and the
// ARRAY constructs registered by usys::core — see spice/netlist.hpp:
// `.array <count> <card>` repeats a device card with {i} placeholders, and
// the TRANSARRAY X card emits a whole transducer/mass/spring/damper array),
// runs every analysis card in order, and prints results:
//   .op    node efforts and branch count
//   .tran  decimated node-effort table (full resolution to --csv)
//   .ac    decimated |H| dB / phase table (full resolution to --csv)
// .tran and .ac share one writer path (AsciiTable preview + CSV series);
// when several analyses write CSV, later files get a .2/.3/... suffix. CSV
// files are written to a temp file and renamed into place, so concurrent
// usim processes targeting the same path never interleave partial output.
//
// All execution — single run, sweep points, and the server — dispatches
// through the usys::api facade (api/api.hpp): one Session per circuit, one
// JobRequest per submission. usim itself holds no analysis dispatch logic.
//
// Batch sweep mode: every --sweep flag adds one grid axis or one
// statistical parameter,
//   --sweep gap=1e-6:2e-6:8      8 evenly spaced values (lo:hi:n)
//   --sweep vdrive=2,5,10        an explicit value list
//   --sweep gap=normal(2u,50n)   a per-point Monte Carlo draw
//   --sweep temp=corner(-40,25,125)  a corner axis (cartesian with the rest)
// and every `{name}` occurrence in the netlist text is substituted per grid
// point (cartesian product of axes and corners, x --mc MC draws). Netlist
// `.param name dist=...` cards declare the same distributions inline and
// `.measure label metric min=.. max=..` cards declare yield bounds; draws
// come from a counter-based RNG keyed on (--seed, global point index,
// param-name hash), so results are bit-identical across thread counts,
// --shard splits, and checkpoint resume (docs/sweeps.md). The job is
// api::plan_sweep + api::run_sweep, which the server's sweep op runs too;
// points run on --threads workers (default: hardware concurrency).
// When every {name} is a value placeholder (a whole R/C/L value, V/I DC
// value or X-card key={name}), each worker parses the netlist once and runs
// its points as parameter overrides on that warm session; otherwise each
// point's substituted text gets a fresh session. Both give
// bit-identical results (api::run_sweep_point). The result table has one row per
// point: global index, parameter values, summary metrics (op efforts /
// final transient values / last AC magnitudes per node; min/max/mean
// aggregates over 16 nodes). --stats-out distills the run into a mergeable
// stats JSONL (quantiles + yield); `usim --merge-stats` fuses per-shard
// files into the byte-identical single-run document. Example netlist with
// a sweepable gap: examples/transducer_array.cir.
//
// --threads applies to sweep mode only: every single run, sweep point, and
// server job solves on the serial solver.
//
// --set DEV.PARAM=value overrides one device parameter against the BOUND
// circuit (no netlist edit, no re-parse): the facade's delta path. Values
// use SPICE number syntax; parameters are the lower-case netlist keys
// (R1.r, C3.c, XK2.k, V1.dc, ...). Repeatable. Also accepted by --client
// submissions, where a matching cached engine takes the rebind() fast path.
//
// --hdl-mode=ast|bytecode|codegen presets the execution mode for HDL
// behavioral cards (HDLTRANSV & co.): the paper's interpreted tree walk, the
// bytecode VM (default), or natively compiled models. Equivalent to a
// leading `.options hdl=<mode>`; the netlist's own `.options hdl=` and
// per-card `mode=` still override. codegen falls back to the VM (with a
// warning) when no host compiler is available.
//
// Fault tolerance: --timeout=<ms> puts a wall-clock budget on every
// analysis (per sweep point in sweep mode; whole job in server mode); a
// budgeted run that expires stops at the next solver poll and exits 3
// instead of hanging. In sweep mode --retries=N re-runs failed points with
// escalated Newton limits, --checkpoint=<path> journals each finished point
// (JSONL, flushed per point), --resume=<path> restores completed points
// bit-identically and re-runs only unfinished ones, and --shard=k/n runs
// the k-th of n deterministic grid partitions (shard checkpoint files merge
// by plain concatenation). See docs/robustness.md for the full contract.
//
// Static diagnostics: --lint runs the two-level analyzer (spice/lint.hpp:
// circuit structure; hdl/verify.hpp: compiled bytecode) INSTEAD of the
// analysis cards and prints every finding. --lint=error (the default) exits
// nonzero only on error-severity findings; --lint=warn makes warnings fail
// too. --lint-format=json emits the machine-readable form documented in
// docs/diagnostics.md. With --sweep axes, the first grid point's values are
// substituted so parameterized netlists ({gap}, {vdrive}) lint as written.
//
// Server mode: --serve=<socket> turns usim into a long-lived daemon that
// accepts jobs as line-delimited JSON over a local Unix socket and keeps a
// warm-engine cache keyed by netlist content hash, so repeat submissions
// skip parse/bind/symbolic factorization (docs/server.md has the wire
// protocol). --client=<socket> submits the given netlist to such a daemon
// and streams the response frames to stdout; --stats / --ping / --shutdown
// send the corresponding control requests instead.
//
// Exit codes: 0 = all analyses (all sweep points) succeeded;
//             1 = an analysis failed to converge / a sweep point failed /
//                 the server queue was full (busy);
//             2 = usage, file, netlist, or request errors;
//             3 = stopped by the --timeout deadline (or a cancel request).
// --lint: 0 = no findings at/above the threshold, 1 = findings, 2 = parse
// errors. (--help prints the same contract and exits 0.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/api.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/netlist_ext.hpp"
#include "hdl/interpreter.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"

using namespace usys;

namespace {

// --- unified series output ---------------------------------------------------

/// One writer path for every series-producing analysis: prints a decimated
/// AsciiTable preview and (optionally) the FULL series as CSV. `csv_path`
/// is consumed: subsequent calls get a numbered suffix.
class SeriesSink {
 public:
  explicit SeriesSink(std::string csv_path) : csv_path_(std::move(csv_path)) {}

  /// `row_at(k)` produces row k on demand: the ~21-row preview only touches
  /// the rows it prints, and the full series is materialized solely when a
  /// CSV was requested (array-scale transients would otherwise duplicate
  /// the whole solution history just to print a table).
  void emit(const std::vector<std::string>& headers, std::size_t n_rows,
            const std::function<std::vector<double>(std::size_t)>& row_at,
            int preview_rows = 21) {
    AsciiTable t(headers);
    const std::size_t step =
        std::max<std::size_t>(1, n_rows / static_cast<std::size_t>(preview_rows));
    for (std::size_t k = 0; k < n_rows; k += step) {
      const std::vector<double> row = row_at(k);
      std::vector<std::string> cells;
      cells.reserve(row.size());
      cells.push_back(fmt_num(row[0], 5));
      for (std::size_t i = 1; i < row.size(); ++i) cells.push_back(fmt_sci(row[i], 4));
      t.add_row(std::move(cells));
    }
    t.print(std::cout);
    if (csv_path_.empty()) return;
    std::vector<std::vector<double>> rows;
    rows.reserve(n_rows);
    for (std::size_t k = 0; k < n_rows; ++k) rows.push_back(row_at(k));
    std::string path = csv_path_;
    if (++csv_uses_ > 1) {
      char suffix[16];
      std::snprintf(suffix, sizeof suffix, ".%d", csv_uses_);
      const auto dot = path.rfind('.');
      if (dot == std::string::npos || dot == 0) {
        path += suffix;
      } else {
        path = path.substr(0, dot) + suffix + path.substr(dot);
      }
    }
    // Write-then-rename: the file at `path` appears atomically, so jobs in
    // concurrent usim processes aiming at the same path can never interleave
    // partial CSV output (last writer wins whole-file).
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    if (write_csv(tmp, headers, rows) && std::rename(tmp.c_str(), path.c_str()) == 0) {
      std::cout << "full series -> " << path << "\n";
    } else {
      std::remove(tmp.c_str());
      std::cerr << "warning: failed to write CSV '" << path << "'\n";
    }
  }

 private:
  std::string csv_path_;
  int csv_uses_ = 0;
};

// --- single-run rendering ----------------------------------------------------
//
// Dispatch lives in api::Session::run; these only RENDER one finished
// analysis each (table preview + failure reporting).

const char* rescue_note(bool used_gmin, bool used_source) {
  if (used_gmin) return ", rescued by gmin stepping";
  if (used_source) return ", rescued by source stepping";
  return "";
}

void render_op(spice::Circuit& ckt, const spice::OpResult& op) {
  if (!op.converged) {
    std::cerr << "error: operating point failed [" << to_string(op.failure.kind)
              << "]: " << op.failure.to_string() << "\n";
    return;
  }
  std::cout << "\n=== .op ===\n";
  AsciiTable t({"node", "nature", "effort"});
  for (int i = 0; i < ckt.node_count(); ++i) {
    t.add_row({ckt.node_name(i), std::string(to_string(ckt.node_nature(i))),
               fmt_sci(op.at(i), 6)});
  }
  t.print(std::cout);
  std::cout << "(" << ckt.branch_count() << " branch unknowns, "
            << op.newton_iterations << " Newton iterations"
            << rescue_note(op.used_gmin_stepping, op.used_source_stepping) << ")\n";
}

void render_tran(const api::AnalysisOutcome& outcome, spice::Circuit& ckt,
                 double tstop, SeriesSink& sink) {
  const spice::TranResult& res = outcome.tran;
  if (!res.ok) {
    std::cerr << "error: transient failed [" << to_string(res.failure.kind)
              << "]: " << res.error << "\n";
    std::cerr << "  (" << res.time.size() << " points accepted, "
              << res.rejected_steps << " rejected steps, " << res.total_newton_iters
              << " Newton iters"
              << rescue_note(res.used_gmin_stepping, res.used_source_stepping)
              << ")\n";
    return;
  }
  std::cout << "\n=== .tran to " << tstop << " s (" << res.time.size()
            << " points, " << res.total_newton_iters << " Newton iters, "
            << res.rejected_steps << " rejected steps"
            << rescue_note(res.used_gmin_stepping, res.used_source_stepping)
            << ") ===\n";
  const api::SeriesView view = api::series_view(outcome, ckt);
  sink.emit(view.columns, view.rows, view.row_at);
}

void render_ac(const api::AnalysisOutcome& outcome, spice::Circuit& ckt,
               const spice::AcOptions& opts, SeriesSink& sink) {
  const spice::AcResult& res = outcome.ac;
  if (!res.ok) {
    std::cerr << "error: ac failed [" << to_string(res.failure.kind)
              << "]: " << res.error << "\n";
    return;
  }
  std::cout << "\n=== .ac " << opts.f_start << " .. " << opts.f_stop << " Hz ===\n";
  const api::SeriesView view = api::series_view(outcome, ckt);
  sink.emit(view.columns, view.rows, view.row_at);
}

int run_single(const std::string& text, const std::string& csv,
               const std::string& hdl_mode, double timeout_ms,
               const std::vector<std::string>& set_specs) {
  api::Session session(text, hdl_mode);  // NetlistError -> main -> exit 2
  if (!session.title().empty()) std::cout << "*" << session.title() << "\n";
  spice::Circuit& ckt = session.circuit();
  SeriesSink sink(csv);

  api::JobRequest jr;
  for (const auto& spec : set_specs) {
    api::ParamOverride ov;
    if (!api::parse_override(spec, ov)) {
      std::cerr << "error: bad --set '" << spec << "' (want DEV.PARAM=value)\n";
      return 2;
    }
    jr.overrides.push_back(std::move(ov));
  }
  // The timeout budgets each ANALYSIS CARD, not the whole netlist: the
  // engine polls one deadline per run_op/run_tran/run_ac call.
  jr.options.timeout_ms = timeout_ms;

  if (session.cards().empty()) std::cout << "(no analysis cards; running .op)\n";

  const auto& cards = session.cards();
  const api::JobResult result = session.run(
      jr, [&](std::size_t index, const api::AnalysisOutcome& outcome) {
        switch (outcome.kind) {
          case spice::AnalysisCard::Kind::op:
            render_op(ckt, outcome.op);
            break;
          case spice::AnalysisCard::Kind::tran:
            render_tran(outcome, ckt, cards[index].tran.tstop, sink);
            break;
          case spice::AnalysisCard::Kind::ac:
            render_ac(outcome, ckt, cards[index].ac, sink);
            break;
        }
      });
  // Failures inside analyses were already rendered by the callback; what
  // remains is the pre-analysis path (a rejected --set override).
  if (!result.ok && result.analyses.empty())
    std::cerr << "error: " << result.error << "\n";
  return result.exit_code;
}

// --- lint mode ---------------------------------------------------------------

/// Parse errors — malformed cards (NetlistError) and circuit-construction
/// conflicts like duplicate device names (CircuitError) — are netlist
/// problems: exit 2. A CircuitError thrown later, during an ANALYSIS, is a
/// runtime failure and keeps exit code 1.
spice::Netlist parse_netlist(const std::string& text, const std::string& hdl_mode) {
  auto parser = core::make_full_parser();
  if (!hdl_mode.empty()) parser.set_option("hdl", hdl_mode);
  try {
    return parser.parse(text);
  } catch (const spice::CircuitError& e) {
    throw spice::NetlistError(0, e.what());
  }
}

/// `usim --lint`: parse, bind, run the full static analyzer, print findings,
/// and report via the exit code. Analyses never run. `warn_threshold` makes
/// warnings count as failures (--lint=warn).
int run_lint(const std::string& text, const std::string& hdl_mode,
             bool warn_threshold, bool json) {
  spice::Netlist net = parse_netlist(text, hdl_mode);
  spice::LintReport report;
  try {
    report = spice::lint_circuit(*net.circuit);
  } catch (const spice::CircuitError& e) {
    // Bind-time rejections (malformed HDL bytecode throws inside bind) are
    // themselves diagnostics; render one error finding instead of dying.
    spice::LintDiag d;
    d.severity = spice::LintSeverity::error;
    d.rule = "hdl-layout";
    d.message = e.what();
    report.diags.push_back(std::move(d));
  }
  if (json) {
    std::cout << report.to_json() << "\n";
  } else if (report.clean()) {
    std::cout << "lint: clean\n";
  } else {
    std::cout << report.to_text();
  }
  const bool fail =
      report.has_errors() || (warn_threshold && report.warning_count() > 0);
  return fail ? 1 : 0;
}

// --- sweep mode --------------------------------------------------------------
//
// The job — spec and seed rules, the grid, per-point execution and the stats
// fold — is api::plan_sweep / api::run_sweep, shared with the server's sweep
// op. This file only renders the result table and the stats summary.

int run_sweep(const api::SweepPlan& plan, int threads, const std::string& csv,
              const std::string& stats_out, double timeout_ms,
              const spice::SweepOptions& sweep_opts) {
  const spice::McOptions& mc = plan.mc;
  const bool statistical =
      mc.samples > 1 || !plan.dists.empty() || !plan.measures.empty();
  std::cout << "=== sweep: " << plan.point_count() << " points x " << plan.axes.size()
            << " axes on " << spice::SweepRunner(threads).thread_count() << " threads";
  if (statistical)
    std::cout << " (mc=" << mc.samples << ", seed=" << mc.seed << ", "
              << plan.dists.size() << " dists)";
  if (sweep_opts.shard_count > 1)
    std::cout << " (shard " << sweep_opts.shard_index << "/" << sweep_opts.shard_count
              << ")";
  std::cout << " ===\n";
  api::JobOptions job;
  job.timeout_ms = timeout_ms;
  const api::SweepRun run = api::run_sweep(plan, threads, sweep_opts, job);
  const auto& grid = run.grid;
  const auto& results = run.outcomes;

  // Tabulate: global index + parameter columns (every point carries the
  // same names: axes, corners, then drawn/constant params) + the union of
  // metric names across successful points, first-seen order. (Metric sets
  // can legitimately differ per point — e.g. sweeping an array size across
  // the per-node aggregation threshold — so a point missing a column shows
  // '-' there, not 'failed'.) The leading index column is what keeps
  // per-shard result files alignable: row i of any shard's CSV names the
  // same grid point as row i of the full run.
  std::vector<std::string> metric_names;
  for (const auto& result : results) {
    if (!result.ok) continue;
    for (const auto& [name, value] : result.metrics) {
      if (std::find(metric_names.begin(), metric_names.end(), name) ==
          metric_names.end())
        metric_names.push_back(name);
    }
  }
  std::vector<std::string> headers;
  headers.push_back("index");
  for (const auto& [name, value] : grid[0].params) headers.push_back(name);
  headers.insert(headers.end(), metric_names.begin(), metric_names.end());
  headers.push_back("status");

  const spice::StatsRun& stats = run.stats;
  AsciiTable t(headers);
  std::vector<std::vector<double>> csv_rows;
  int failures = 0;
  int restored = 0;
  int skipped = 0;
  std::vector<std::pair<FailureKind, int>> failure_counts;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<std::string> cells;
    std::vector<double> row;
    cells.push_back(std::to_string(i));
    row.push_back(static_cast<double>(i));
    for (const auto& [name, value] : grid[i].params) {
      cells.push_back(fmt_num(value, 6));
      row.push_back(value);
    }
    if (results[i].ok) {
      if (results[i].restored) ++restored;
      for (const auto& name : metric_names) {
        const auto& metrics = results[i].metrics;
        const auto it =
            std::find_if(metrics.begin(), metrics.end(),
                         [&](const auto& m) { return m.first == name; });
        if (it == metrics.end()) {
          cells.push_back("-");
          row.push_back(std::numeric_limits<double>::quiet_NaN());
        } else {
          cells.push_back(fmt_sci(it->second, 4));
          row.push_back(it->second);
        }
      }
      cells.push_back(results[i].restored ? "ok (restored)" : "ok");
      csv_rows.push_back(std::move(row));
    } else if (results[i].skipped) {
      ++skipped;
      for (std::size_t m = 0; m < metric_names.size(); ++m) cells.push_back("-");
      cells.push_back("(other shard)");
    } else {
      ++failures;
      const FailureKind kind = results[i].failure.kind;
      const auto it = std::find_if(failure_counts.begin(), failure_counts.end(),
                                   [&](const auto& fc) { return fc.first == kind; });
      if (it == failure_counts.end()) {
        failure_counts.emplace_back(kind, 1);
      } else {
        ++it->second;
      }
      for (std::size_t m = 0; m < metric_names.size(); ++m) cells.push_back("-");
      std::string status(to_string(kind));
      if (results[i].attempts > 1)
        status += " (x" + std::to_string(results[i].attempts) + ")";
      cells.push_back(std::move(status));
    }
    t.add_row(std::move(cells));
  }
  t.print(std::cout);
  if (restored > 0)
    std::cout << restored << " point(s) restored from " << sweep_opts.resume_path << "\n";
  if (failures > 0) {
    std::cout << failures << " of " << grid.size() - skipped << " points failed (";
    bool first = true;
    for (const auto& [kind, count] : failure_counts) {
      if (!first) std::cout << ", ";
      first = false;
      std::cout << count << " " << to_string(kind);
    }
    std::cout << ")\n";
  }
  if (!sweep_opts.checkpoint_path.empty())
    std::cout << "checkpoint -> " << sweep_opts.checkpoint_path << "\n";
  if (!csv.empty() && !csv_rows.empty()) {
    // Sharded runs aiming at one --csv path must not clobber each other:
    // each shard writes its own .shardKofN file (identity when unsharded).
    const std::string csv_path = spice::shard_suffixed_path(
        csv, sweep_opts.shard_index, sweep_opts.shard_count);
    std::vector<std::string> csv_headers(headers.begin(), headers.end() - 1);
    if (write_csv(csv_path, csv_headers, csv_rows))
      std::cout << "sweep table -> " << csv_path << "\n";
  }

  if (statistical) {
    const auto summaries = stats.metric_summaries();
    if (!summaries.empty()) {
      std::cout << "\n=== stats ===\n";
      AsciiTable st({"metric", "n", "mean", "stddev", "min", "max", "p05",
                     "p50", "p95"});
      for (const auto& s : summaries) {
        auto q_at = [&](double q) {
          for (const auto& qp : s.quantiles)
            if (qp.q == q) return fmt_sci(qp.value, 4);
          return std::string("-");
        };
        st.add_row({s.name, std::to_string(s.n), fmt_sci(s.mean, 4),
                    fmt_sci(s.stddev, 4), fmt_sci(s.min, 4), fmt_sci(s.max, 4),
                    q_at(0.05), q_at(0.5), q_at(0.95)});
      }
      st.print(std::cout);
    }
    const spice::YieldSummary y = stats.yield();
    std::cout << "yield: " << y.pass << "/" << y.n << " points pass ("
              << fmt_num(100.0 * y.yield, 4) << "%)\n";
    for (const auto& [label, fails] : y.measure_failures)
      if (fails > 0)
        std::cout << "  measure " << label << ": " << fails << " failure(s)\n";
  }
  if (!stats_out.empty()) {
    const std::string stats_path = spice::shard_suffixed_path(
        stats_out, sweep_opts.shard_index, sweep_opts.shard_count);
    std::string err;
    if (spice::write_stats(stats_path, stats, &err)) {
      std::cout << "stats -> " << stats_path << "\n";
    } else {
      std::cerr << "warning: failed to write stats '" << stats_path
                << "': " << err << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

// --- merge-stats mode --------------------------------------------------------

/// `usim --merge-stats=<out> a.jsonl b.jsonl ...`: fuse per-shard stats
/// files into the canonical single-run document. Summaries are recomputed
/// from the merged point set, so the output is byte-identical to the file a
/// single unsharded process with the same seed would have written.
int run_merge_stats(const std::vector<std::string>& inputs,
                    const std::string& out_path) {
  if (inputs.empty()) {
    std::cerr << "error: --merge-stats needs input stats files as positional "
                 "arguments\n";
    return 2;
  }
  spice::StatsRun merged;
  std::string err;
  if (!spice::merge_stats(inputs, merged, &err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  if (!spice::write_stats(out_path, merged, &err)) {
    std::cerr << "error: " << err << "\n";
    return 2;
  }
  const spice::YieldSummary y = merged.yield();
  std::cout << "merged " << inputs.size() << " stats file(s): " << y.n << " of "
            << merged.total_points << " points, yield " << y.pass << "/" << y.n
            << " -> " << out_path << "\n";
  return 0;
}

void print_usage(std::ostream& os) {
  os << "usage: usim <netlist.cir> [--csv=<path>] "
        "[--sweep <name>=<spec>]... [--mc=N] [--seed=S] [--stats-out=<path>] "
        "[--set <DEV.PARAM=value>]... "
        "[--threads=N] [--hdl-mode=<mode>] [--timeout=<ms>] "
        "[--retries=N] [--checkpoint=<path>] [--resume=<path>] [--shard=k/n] "
        "[--lint[=error|warn]] [--lint-format=text|json] [--quiet]\n"
        "       usim --merge-stats=<out.jsonl> <shard.jsonl>...\n"
        "       usim --serve=<socket> [--serve-workers=N] [--serve-queue=N] "
        "[--serve-cache=N]\n"
        "       usim --client=<socket> <netlist.cir> [--sweep ...] [--mc=N] "
        "[--seed=S] [--set ...] [--timeout=<ms>] [--no-cache]\n"
        "       usim --client=<socket> --stats | --ping | --shutdown\n"
        "\n"
        "  --lint[=error|warn] run the static diagnostics pass instead of the\n"
        "                      analysis cards: circuit structure (floating nodes,\n"
        "                      V-loops, structural singularity, parameter sanity,\n"
        "                      unconnected array cells) plus the HDL bytecode\n"
        "                      verifier. Exits 1 when findings reach the threshold\n"
        "                      (error = default; warn also fails on warnings), 0\n"
        "                      otherwise, 2 on parse errors. With --sweep axes the\n"
        "                      first grid point is substituted for {name} markers\n"
        "  --lint-format=F     lint output format: text (default) or json (schema\n"
        "                      in docs/diagnostics.md)\n"
        "  --csv=<path>        write full .tran/.ac series (or the sweep table) as\n"
        "                      CSV; written via temp file + rename, so concurrent\n"
        "                      jobs targeting one path never interleave output\n"
        "  --sweep name=spec   add one grid axis (lo:hi:n or v1,v2,...) or one\n"
        "                      statistical parameter (normal(mu,sigma),\n"
        "                      uniform(lo,hi), corner(v1,...), or a constant);\n"
        "                      every {name} in the netlist is substituted per\n"
        "                      point. Netlist '.param name dist=...' cards declare\n"
        "                      the same thing inline; a --sweep dist of the same\n"
        "                      name overrides the card (docs/sweeps.md)\n"
        "  --mc=N              sweep mode: N Monte Carlo draws per grid/corner\n"
        "                      combination (default 1); normal/uniform params are\n"
        "                      redrawn per point, the MC index runs fastest\n"
        "  --seed=S            sweep mode: RNG seed, decimal uint64 (default 0).\n"
        "                      Draws are keyed on (seed, global point index, param\n"
        "                      name hash), so any point is reproducible in\n"
        "                      isolation and streams are bit-identical across\n"
        "                      --threads counts, --shard splits, and --resume\n"
        "  --stats-out=<path>  sweep mode: write the stats JSONL document (header,\n"
        "                      per-point params/metrics/pass, quantile + yield\n"
        "                      summaries; schema in docs/sweeps.md). Sharded runs\n"
        "                      write <path>.shardKofN instead of clobbering\n"
        "  --merge-stats=<out> merge per-shard stats JSONL files (given as\n"
        "                      positional arguments) into <out>; the merged file\n"
        "                      is byte-identical to the same run unsharded. Exits\n"
        "                      0 on success, 2 on unreadable/incompatible inputs\n"
        "  --set DEV.PARAM=V   override one device parameter on the bound circuit\n"
        "                      (no re-parse; lower-case netlist keys: R1.r, C3.c,\n"
        "                      XK2.k, V1.dc, ...). Repeatable; SPICE number syntax.\n"
        "                      Works in single-run and --client modes\n"
        "  --threads=N         sweep mode: N parallel grid workers (0 = auto, the\n"
        "                      default); results never depend on N\n"
        "  --hdl-mode=<mode>   execution mode for HDL behavioral cards: ast (the\n"
        "                      paper's interpreted walk), bytecode (VM, default), or\n"
        "                      codegen (natively compiled; falls back to the VM when\n"
        "                      no host compiler is available). Same as a leading\n"
        "                      '.options hdl=<mode>'; per-card 'mode=' overrides\n"
        "  --timeout=<ms>      wall-clock budget per analysis card (per sweep point\n"
        "                      in sweep mode; whole job in --client mode); an\n"
        "                      expired run stops at the next solver poll and reports\n"
        "                      a timeout failure (exit 3 in single-run mode).\n"
        "                      0 = unlimited (default)\n"
        "  --retries=N         sweep mode: re-run a failed point up to N extra times\n"
        "                      with doubled Newton iteration limits per attempt\n"
        "  --checkpoint=<path> sweep mode: journal each finished point to a JSONL\n"
        "                      checkpoint (appended + flushed per point)\n"
        "  --resume=<path>     sweep mode: restore completed points from a previous\n"
        "                      checkpoint (bit-identical) and re-run only unfinished\n"
        "                      ones; keeps journaling to the same file unless\n"
        "                      --checkpoint overrides\n"
        "  --shard=k/n         sweep mode: run only the k-th of n deterministic grid\n"
        "                      partitions (k is 1-based; point i belongs to shard\n"
        "                      (i mod n)+1). Shard checkpoint files merge by plain\n"
        "                      concatenation\n"
        "  --serve=<socket>    run as a long-lived daemon on a Unix socket: jobs\n"
        "                      arrive as line-delimited JSON (docs/server.md) and\n"
        "                      repeat submissions of the same netlist hit a warm\n"
        "                      engine cache (skip parse/bind/symbolic). Blocks until\n"
        "                      a shutdown request\n"
        "  --serve-workers=N   server mode: worker threads executing jobs (default 2)\n"
        "  --serve-queue=N     server mode: queued-job capacity before submissions\n"
        "                      are rejected with a busy frame (default 16)\n"
        "  --serve-cache=N     server mode: warm engine cache capacity; up to 2xN\n"
        "                      sessions are kept in a cooled state (default 8)\n"
        "  --client=<socket>   submit the netlist to a --serve daemon and stream the\n"
        "                      response frames (line-delimited JSON) to stdout; the\n"
        "                      exit code comes from the done frame\n"
        "  --stats             with --client: request the server's /stats snapshot\n"
        "                      (jobs/s, cache hit rates, queue depth, p50/p99)\n"
        "  --ping              with --client: liveness probe (pong)\n"
        "  --shutdown          with --client: ask the daemon to exit cleanly\n"
        "  --no-cache          with --client: bypass the server's result cache\n"
        "                      (benchmarking; the engine cache still applies)\n"
        "  --quiet             suppress info/warn chatter (keeps errors)\n"
        "  --help              print this and exit 0\n"
        "\n"
        "exit codes: 0 = all analyses (all sweep points) succeeded\n"
        "            1 = an analysis failed to converge / a sweep point failed /\n"
        "                the server queue was full (busy)\n"
        "            2 = usage, file, netlist, or request errors\n"
        "            3 = stopped by the --timeout deadline (or a cancel request)\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::stringstream buf;
  buf << file.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage(std::cout);
      return 0;
    }
  }
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  std::string netlist_path;
  std::vector<std::string> positionals;  // netlist, or --merge-stats inputs
  std::string csv;
  std::string hdl_mode;  // flag absent: the netlist (or bytecode) decides
  std::vector<std::string> sweep_specs;  // verbatim --sweep specs
  int mc_samples = 1;
  bool mc_given = false;  // --mc alone (no axes/dists) still forces sweep mode
  std::string seed = "0";
  std::string stats_out;
  std::string merge_out;  // --merge-stats=<out>: merge mode
  std::vector<std::string> set_specs;
  int threads = -1;  // flag absent: auto sweep workers
  double timeout_ms = 0.0;
  bool lint_mode = false;
  bool lint_warn = false;   // --lint=warn: warnings fail too
  bool lint_json = false;   // --lint-format=json
  spice::SweepOptions sweep_opts;
  server::ServerOptions serve_opts;
  std::string client_path;
  server::Request::Op client_op = server::Request::Op::run;  // or a control op
  bool no_cache = false;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      positionals.emplace_back(argv[i]);
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      csv = argv[i] + 6;
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_specs.emplace_back(argv[++i]);
    } else if (std::strncmp(argv[i], "--mc=", 5) == 0) {
      mc_samples = std::atoi(argv[i] + 5);
      if (mc_samples < 1 || mc_samples > 10'000'000) {
        std::cerr << "error: --mc must be in [1, 1e7]\n";
        return 2;
      }
      mc_given = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = argv[i] + 7;  // api::plan_sweep validates it
    } else if (std::strncmp(argv[i], "--stats-out=", 12) == 0) {
      stats_out = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--merge-stats=", 14) == 0) {
      merge_out = argv[i] + 14;
      if (merge_out.empty()) {
        std::cerr << "error: --merge-stats needs an output path\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--set") == 0 && i + 1 < argc) {
      set_specs.emplace_back(argv[++i]);
    } else if (std::strncmp(argv[i], "--set=", 6) == 0) {
      set_specs.emplace_back(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      if (threads < 0) {
        std::cerr << "error: --threads must be >= 0 (0 = auto)\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--hdl-mode=", 11) == 0) {
      hdl_mode = argv[i] + 11;
      hdl::HdlExecMode parsed{};
      if (!hdl::parse_exec_mode(hdl_mode, parsed)) {
        std::cerr << "error: bad --hdl-mode '" << hdl_mode
                  << "' (ast|bytecode|codegen)\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--timeout=", 10) == 0) {
      timeout_ms = std::atof(argv[i] + 10);
      if (timeout_ms < 0.0) {
        std::cerr << "error: --timeout must be >= 0 milliseconds (0 = unlimited)\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--retries=", 10) == 0) {
      sweep_opts.retries = std::atoi(argv[i] + 10);
      if (sweep_opts.retries < 0) {
        std::cerr << "error: --retries must be >= 0\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--checkpoint=", 13) == 0) {
      sweep_opts.checkpoint_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      sweep_opts.resume_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--shard=", 8) == 0) {
      const std::string spec = argv[i] + 8;
      const auto slash = spec.find('/');
      const int k = slash == std::string::npos ? 0 : std::atoi(spec.substr(0, slash).c_str());
      const int n = slash == std::string::npos ? 0 : std::atoi(spec.substr(slash + 1).c_str());
      if (slash == std::string::npos || n < 1 || k < 1 || k > n) {
        std::cerr << "error: bad --shard '" << spec << "' (want k/n with 1 <= k <= n)\n";
        return 2;
      }
      sweep_opts.shard_index = k;
      sweep_opts.shard_count = n;
    } else if (std::strncmp(argv[i], "--lint-format=", 14) == 0) {
      const std::string fmt = argv[i] + 14;
      if (fmt == "json") {
        lint_json = true;
      } else if (fmt != "text") {
        std::cerr << "error: bad --lint-format '" << fmt << "' (text|json)\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint_mode = true;
    } else if (std::strncmp(argv[i], "--lint=", 7) == 0) {
      const std::string level = argv[i] + 7;
      if (level == "warn") {
        lint_warn = true;
      } else if (level != "error") {
        std::cerr << "error: bad --lint level '" << level << "' (error|warn)\n";
        return 2;
      }
      lint_mode = true;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve_opts.socket_path = argv[i] + 8;
      if (serve_opts.socket_path.empty()) {
        std::cerr << "error: --serve needs a socket path\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--serve-workers=", 16) == 0) {
      serve_opts.workers = std::atoi(argv[i] + 16);
      if (serve_opts.workers < 1) {
        std::cerr << "error: --serve-workers must be >= 1\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--serve-queue=", 14) == 0) {
      serve_opts.queue_capacity = std::atoi(argv[i] + 14);
      if (serve_opts.queue_capacity < 1) {
        std::cerr << "error: --serve-queue must be >= 1\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--serve-cache=", 14) == 0) {
      serve_opts.engine_cache_capacity = std::atoi(argv[i] + 14);
      if (serve_opts.engine_cache_capacity < 1) {
        std::cerr << "error: --serve-cache must be >= 1\n";
        return 2;
      }
    } else if (std::strncmp(argv[i], "--client=", 9) == 0) {
      client_path = argv[i] + 9;
      if (client_path.empty()) {
        std::cerr << "error: --client needs a socket path\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      client_op = server::Request::Op::stats;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      client_op = server::Request::Op::ping;
    } else if (std::strcmp(argv[i], "--shutdown") == 0) {
      client_op = server::Request::Op::shutdown;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      no_cache = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      // Long-documented flag: suppress info/warn chatter (keeps errors).
      set_log_level(LogLevel::error);
    } else {
      std::cerr << "error: unknown flag '" << argv[i] << "'\n";
      return 2;
    }
  }

  // --- merge-stats mode ------------------------------------------------------
  // Positional arguments are the per-shard input files, not a netlist.
  if (!merge_out.empty()) {
    if (!serve_opts.socket_path.empty() || !client_path.empty()) {
      std::cerr << "error: --merge-stats is a local mode (no --serve/--client)\n";
      return 2;
    }
    return run_merge_stats(positionals, merge_out);
  }
  if (positionals.size() > 1) {
    std::cerr << "error: more than one netlist ('" << positionals[0] << "', '"
              << positionals[1] << "')\n";
    return 2;
  }
  if (!positionals.empty()) netlist_path = positionals[0];

  // --- server mode -----------------------------------------------------------
  if (!serve_opts.socket_path.empty()) {
    if (!client_path.empty()) {
      std::cerr << "error: --serve and --client are mutually exclusive\n";
      return 2;
    }
    return server::serve_blocking(serve_opts);
  }

  // --- client control requests ---------------------------------------------
  const bool client_control = client_op != server::Request::Op::run;
  if (client_path.empty() && (client_control || no_cache)) {
    std::cerr << "error: --stats/--ping/--shutdown/--no-cache need --client=<socket>\n";
    return 2;
  }
  if (client_control) {
    server::Request req;
    req.op = client_op;
    return server::run_client(client_path, req, std::cout, std::cerr);
  }

  // --- netlist modes: client submission, lint, sweep, single run ------------
  if (netlist_path.empty()) {
    if (client_path.empty()) {
      print_usage(std::cerr);
    } else {
      std::cerr << "error: --client needs a netlist (or --stats/--ping/--shutdown)\n";
    }
    return 2;
  }
  std::string text;
  if (!read_file(netlist_path, text)) {
    std::cerr << "error: cannot open '" << netlist_path << "'\n";
    return 2;
  }
  // Every netlist mode plans the sweep: the netlist's .param/.measure cards
  // and the --sweep/--seed rules are checked even when no sweep runs.
  api::SweepPlan plan;
  std::string why;
  if (!api::plan_sweep({text, sweep_specs, mc_samples, seed, hdl_mode}, plan, why)) {
    std::cerr << "error: " << why << "\n";
    return 2;
  }
  const bool sweep_mode = !plan.axes.empty() || !plan.dists.empty() || mc_given;

  if (!client_path.empty()) {
    // Any sweep/MC ingredient — a --sweep spec, --mc, or a netlist .param
    // distribution — makes the submission the server's sweep op. Specs and
    // seed travel verbatim; the server plans them with api::plan_sweep too.
    server::Request req;
    req.op = sweep_mode ? server::Request::Op::sweep : server::Request::Op::run;
    req.netlist = std::move(text);
    req.hdl_mode = hdl_mode;
    req.set_specs = set_specs;
    req.timeout_ms = timeout_ms;
    req.no_cache = no_cache;
    req.sweep_specs = sweep_specs;
    req.mc = mc_samples;
    req.seed = seed;
    return server::run_client(client_path, req, std::cout, std::cerr);
  }
  try {
    if (lint_mode) {
      if (sweep_mode) {
        // Parameterized netlists lint at the first grid point.
        const auto grid = spice::mc_grid(plan.axes, plan.dists, {plan.mc.seed, 1});
        text = api::substitute_params(text, grid[0]);
      }
      return run_lint(text, hdl_mode, lint_warn, lint_json);
    }
    if (sweep_mode) {
      if (!set_specs.empty())
        std::cerr << "note: --set applies to single-run and --client modes only "
                     "(use a --sweep axis with one value instead)\n";
      // --resume keeps journaling to the same file, so an interrupted resume
      // can itself be resumed; an explicit --checkpoint overrides.
      if (!sweep_opts.resume_path.empty() && sweep_opts.checkpoint_path.empty())
        sweep_opts.checkpoint_path = sweep_opts.resume_path;
      return run_sweep(plan, threads < 0 ? 0 : threads, csv, stats_out, timeout_ms,
                       sweep_opts);
    }
    if (threads >= 0 || sweep_opts.retries > 0 || !sweep_opts.checkpoint_path.empty() ||
        !sweep_opts.resume_path.empty() || sweep_opts.shard_count > 0 ||
        !stats_out.empty())
      std::cerr << "note: --threads/--retries/--checkpoint/--resume/--shard/--stats-out "
                   "apply to sweep mode only (no --sweep axis given)\n";
    return run_single(text, csv, hdl_mode, timeout_ms, set_specs);
  } catch (const spice::NetlistError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
