// usim — command-line netlist simulator (the "SPICE" of this repository).
//
// Runs a SPICE-style netlist's analysis cards (spice/netlist.hpp), a sweep
// or Monte Carlo study of it (docs/sweeps.md), its static lint
// (docs/diagnostics.md), the simulation daemon or a client of it
// (docs/server.md), or a merge of per-shard stats files. Every flag, its
// grammar and the modes it acts in are declared once in usim_flags.cpp;
// `usim --help` and README.md list them with the exit codes. All execution
// dispatches through the usys::api facade: this file only renders results.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/api.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"
#include "usim_flags.hpp"

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

/// `usim --lint`: parse, bind, run the full static analyzer, print findings,
/// and report via the exit code. Analyses never run. `warn_threshold` makes
/// warnings count as failures (--lint=warn).
int run_lint(const std::string& text, const std::string& hdl_mode,
             bool warn_threshold, bool json) {
  spice::Netlist net = api::parse_netlist(text, hdl_mode);
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

}  // namespace

int main(int argc, char** argv) {
  usim::Args args;
  if (const auto rc = usim::parse_args(argc, argv, args, std::cout, std::cerr)) return *rc;
  if (args.quiet) set_log_level(LogLevel::error);
  const auto fixed = usim::flag_mode(args, std::cerr);
  if (!fixed) return 2;
  if (*fixed != 0) usim::note_ignored(args, static_cast<usim::Mode>(*fixed), std::cerr);
  if (*fixed == usim::kMerge) return run_merge_stats(args.positionals, args.merge_out);
  if (*fixed == usim::kServe) return server::serve_blocking(args.serve);
  const bool client = !args.client_path.empty();
  server::Request& job = args.job;
  if (*fixed == usim::kClientControl)
    return server::run_client(args.client_path, job, std::cout, std::cerr);

  // --- netlist modes: client submission, lint, sweep, single run ------------
  if (args.positionals.empty()) {
    if (client) {
      std::cerr << "error: --client needs a netlist (or --stats/--ping/--shutdown)\n";
    } else {
      usim::print_help(std::cerr);
    }
    return 2;
  }
  std::ifstream file(args.positionals[0]);
  std::string text(std::istreambuf_iterator<char>(file), {});
  if (!file) {
    std::cerr << "error: cannot open '" << args.positionals[0] << "'\n";
    return 2;
  }
  // Every netlist mode plans the sweep: the netlist's .param/.measure cards
  // and the --sweep/--seed rules are checked even when no sweep runs.
  api::SweepPlan plan;
  std::string why;
  if (!api::plan_sweep({text, job.sweep_specs, job.mc, job.seed, job.hdl_mode}, plan, why)) {
    std::cerr << "error: " << why << "\n";
    return 2;
  }
  const bool sweep_mode = !plan.axes.empty() || !plan.dists.empty() || args.has("--mc");
  const usim::Mode mode = client          ? usim::kClientJob
                          : args.lint     ? usim::kLint
                          : sweep_mode    ? usim::kSweep
                                          : usim::kSingle;
  usim::note_ignored(args, mode, std::cerr);

  if (client) {
    // Any sweep/MC ingredient — a --sweep spec, --mc, or a netlist .param
    // distribution — makes the submission the server's sweep op. Specs and
    // seed travel verbatim; the server plans them with api::plan_sweep too.
    job.op = sweep_mode ? server::Request::Op::sweep : server::Request::Op::run;
    job.netlist = std::move(text);
    return server::run_client(args.client_path, job, std::cout, std::cerr);
  }
  try {
    if (mode == usim::kLint) {
      if (sweep_mode) {
        // Parameterized netlists lint at the first grid point.
        const auto grid = spice::mc_grid(plan.axes, plan.dists, {plan.mc.seed, 1});
        text = api::substitute_params(text, grid[0]);
      }
      return run_lint(text, job.hdl_mode, args.lint_warn, args.lint_json);
    }
    if (mode == usim::kSweep) {
      // --resume keeps journaling to the same file, so an interrupted resume
      // can itself be resumed; an explicit --checkpoint overrides.
      if (args.sweep.checkpoint_path.empty()) args.sweep.checkpoint_path = args.sweep.resume_path;
      return run_sweep(plan, args.threads, args.csv, args.stats_out, job.timeout_ms, args.sweep);
    }
    return run_single(text, args.csv, job.hdl_mode, job.timeout_ms, job.set_specs);
  } catch (const spice::NetlistError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
