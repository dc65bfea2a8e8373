#include "api/api.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/fnv1a.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/netlist_ext.hpp"

namespace usys::api {

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

std::string content_hash(const std::string& netlist_text, const std::string& hdl_mode) {
  std::uint64_t h = kFnv1aKeyOffset;
  const auto mix = [&h](const std::string& s) {
    // Field separator outside the byte alphabet of either input, so
    // ("ab","c") and ("a","bc") hash differently.
    h = fnv1a_step(fnv1a(s, h), 0x100);
  };
  mix(netlist_text);
  mix(hdl_mode);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool parse_override(const std::string& spec, ParamOverride& out) {
  const std::string_view sv(spec);
  const auto eq = sv.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string_view lhs = trim(sv.substr(0, eq));
  const auto dot = lhs.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= lhs.size()) return false;
  const auto value = parse_spice_number(trim(sv.substr(eq + 1)));
  if (!value) return false;
  out.device = std::string(lhs.substr(0, dot));
  out.param = to_lower(lhs.substr(dot + 1));
  out.value = *value;
  return true;
}

// ---------------------------------------------------------------------------
// AnalysisOutcome
// ---------------------------------------------------------------------------

const FailureInfo& AnalysisOutcome::failure() const noexcept {
  switch (kind) {
    case spice::AnalysisCard::Kind::tran: return tran.failure;
    case spice::AnalysisCard::Kind::ac: return ac.failure;
    case spice::AnalysisCard::Kind::op: break;
  }
  return op.failure;
}

std::string AnalysisOutcome::error() const {
  if (ok) return "";
  switch (kind) {
    case spice::AnalysisCard::Kind::tran:
      return tran.error.empty() ? tran.failure.to_string() : tran.error;
    case spice::AnalysisCard::Kind::ac:
      return ac.error.empty() ? ac.failure.to_string() : ac.error;
    case spice::AnalysisCard::Kind::op: break;
  }
  return op.failure.to_string();
}

SeriesView series_view(const AnalysisOutcome& outcome, spice::Circuit& circuit) {
  SeriesView view;
  const int nodes = circuit.node_count();
  switch (outcome.kind) {
    case spice::AnalysisCard::Kind::op: {
      for (int i = 0; i < nodes; ++i) view.columns.push_back(circuit.node_name(i));
      view.rows = 1;
      view.row_at = [&outcome, nodes](std::size_t) {
        std::vector<double> row;
        row.reserve(static_cast<std::size_t>(nodes));
        for (int i = 0; i < nodes; ++i) row.push_back(outcome.op.at(i));
        return row;
      };
      break;
    }
    case spice::AnalysisCard::Kind::tran: {
      view.columns.push_back("t [s]");
      for (int i = 0; i < nodes; ++i) view.columns.push_back(circuit.node_name(i));
      view.rows = outcome.tran.time.size();
      view.row_at = [&outcome, nodes](std::size_t k) {
        std::vector<double> row{outcome.tran.time[k]};
        row.reserve(1 + static_cast<std::size_t>(nodes));
        for (int i = 0; i < nodes; ++i) row.push_back(outcome.tran.at(k, i));
        return row;
      };
      break;
    }
    case spice::AnalysisCard::Kind::ac: {
      view.columns.push_back("f [Hz]");
      for (int i = 0; i < nodes; ++i) {
        view.columns.push_back(circuit.node_name(i) + " dB");
        view.columns.push_back(circuit.node_name(i) + " deg");
      }
      view.rows = outcome.ac.freq.size();
      view.row_at = [&outcome, nodes](std::size_t k) {
        std::vector<double> row{outcome.ac.freq[k]};
        row.reserve(1 + 2 * static_cast<std::size_t>(nodes));
        for (int i = 0; i < nodes; ++i) {
          row.push_back(outcome.ac.magnitude_db(k, i));
          row.push_back(outcome.ac.phase_deg(k, i));
        }
        return row;
      };
      break;
    }
  }
  return view;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

struct Session::Impl {
  spice::Netlist net;        ///< owns the circuit for netlist sessions
  spice::Circuit* circuit = nullptr;
  std::unique_ptr<spice::AnalysisEngine> engine;
  std::string hash;
  std::string title;
  /// The construction cost is attributed to the FIRST job, so a cold
  /// submission reports parsed/bound = true and a warm one reports false.
  bool first_job_parsed = false;
  bool first_job_bound = false;
};

spice::Netlist parse_netlist(const std::string& text, const std::string& hdl_mode,
                             const spice::SweepPoint* point) {
  auto parser = core::make_full_parser();
  if (!hdl_mode.empty()) parser.set_option("hdl", hdl_mode);
  try {
    return parser.parse(text, point);
  } catch (const spice::CircuitError& e) {
    throw spice::NetlistError(0, e.what());
  }
}

Session::Session(const std::string& netlist_text, const std::string& hdl_mode)
    : Session(parse_netlist(netlist_text, hdl_mode), content_hash(netlist_text, hdl_mode)) {}

Session::Session(spice::Netlist net, std::string hash) : impl_(std::make_unique<Impl>()) {
  impl_->net = std::move(net);
  impl_->circuit = impl_->net.circuit.get();
  impl_->title = impl_->net.title;
  impl_->hash = std::move(hash);
  impl_->engine = std::make_unique<spice::AnalysisEngine>(*impl_->circuit);
  impl_->first_job_parsed = true;
  impl_->first_job_bound = true;
}

Session::Session(spice::Circuit& circuit) : impl_(std::make_unique<Impl>()) {
  impl_->circuit = &circuit;
  impl_->engine = std::make_unique<spice::AnalysisEngine>(circuit);
  impl_->first_job_bound = true;  // the engine bind happened here
}

Session::~Session() = default;

const std::string& Session::hash() const noexcept { return impl_->hash; }
const std::string& Session::title() const noexcept { return impl_->title; }
spice::Circuit& Session::circuit() noexcept { return *impl_->circuit; }
spice::AnalysisEngine& Session::engine() noexcept { return *impl_->engine; }
const std::vector<spice::AnalysisCard>& Session::cards() const noexcept {
  return impl_->net.analyses;
}
bool Session::warm() const noexcept { return impl_->engine->warm(); }

namespace {

int exit_code_for(const FailureInfo& failure) {
  return failure.kind == FailureKind::timeout || failure.kind == FailureKind::cancelled
             ? 3
             : 1;
}

/// One applied override, remembered so the run can restore the session's
/// canonical (netlist-defined) values afterwards — the cache keys sessions
/// by netlist hash, so a session must always return to matching its text.
struct AppliedOverride {
  spice::Device* device = nullptr;
  std::string param;
  double baseline = 0.0;
};

/// Whether a DC solve under `a` also answers one under `b`: every option
/// but the budget fields (timeout, cancel) must match.
bool same_operating_point(spice::DcOptions a, spice::DcOptions b) {
  a.newton.timeout_ms = b.newton.timeout_ms = 0.0;
  a.newton.cancel = b.newton.cancel = nullptr;
  return a == b;
}

/// Restores every applied override (newest first) and rebinds on every exit
/// from Session::run, exceptions included.
struct OverrideRestorer {
  spice::AnalysisEngine& engine;
  std::vector<AppliedOverride> applied;

  ~OverrideRestorer() {
    for (auto it = applied.rbegin(); it != applied.rend(); ++it)
      it->device->set_param(it->param, it->baseline);
    if (!applied.empty()) engine.rebind();
  }
};

}  // namespace

JobResult Session::run(const JobRequest& request, const AnalysisCallback& on_analysis) {
  JobResult result;
  result.parsed = impl_->first_job_parsed;
  result.bound = impl_->first_job_bound;
  impl_->first_job_parsed = false;
  impl_->first_job_bound = false;

  // --- apply parameter overrides against the bound circuit ----------------
  OverrideRestorer restorer{*impl_->engine, {}};
  std::vector<AppliedOverride>& applied = restorer.applied;
  applied.reserve(request.overrides.size());
  for (const auto& ov : request.overrides) {
    spice::Device* dev = impl_->circuit->find_device(ov.device);
    AppliedOverride entry{dev, ov.param, 0.0};
    const char* problem = nullptr;
    if (dev == nullptr) {
      problem = "unknown device";
    } else if (!dev->get_param(ov.param, entry.baseline)) {
      problem = "device does not expose parameter";
    } else if (!dev->set_param(ov.param, ov.value)) {
      problem = "value rejected for parameter";
    }
    if (problem != nullptr) {
      result.ok = false;
      result.exit_code = 2;
      result.error = std::string("override '") + ov.device + "." + ov.param +
                     "': " + problem;
      result.failure =
          make_failure(FailureKind::internal_error, "job", result.error);
      return result;
    }
    applied.push_back(std::move(entry));
  }
  if (!applied.empty()) {
    impl_->engine->rebind();
    result.rebound = true;
  }

  // --- run the analysis cards through the one dispatch path ---------------
  const JobOptions& jo = request.options;
  const auto apply_newton = [&jo](spice::NewtonOptions& newton) {
    newton.timeout_ms = jo.timeout_ms;
    newton.cancel = jo.cancel;
    if (jo.max_iters_scale > 1) newton.max_iters *= jo.max_iters_scale;
  };

  std::vector<spice::AnalysisCard> cards =
      request.analyses.empty() ? impl_->net.analyses : request.analyses;
  if (cards.empty()) cards.push_back({});  // default .op

  // The job's operating point: the index in result.analyses of an .op
  // card's converged outcome, handed to the later .ac/.tran cards whose dc
  // options match it, so a job solves each point once. A transient moves
  // device state (start_transient/accept), so it ends the reuse; nothing
  // outlives the job. kNoPoint means none: a plain index, since GCC 12
  // cannot follow an optional's engaged flag into the lambda.
  constexpr std::size_t kNoPoint = SIZE_MAX;
  std::size_t point = kNoPoint;
  spice::DcOptions point_opts;
  const auto reusable = [&](const spice::DcOptions& dc) -> const spice::OpResult* {
    return point != kNoPoint && same_operating_point(point_opts, dc)
               ? &result.analyses[point].op
               : nullptr;
  };

  result.ok = true;
  for (auto& card : cards) {
    AnalysisOutcome outcome;
    outcome.kind = card.kind;
    switch (card.kind) {
      case spice::AnalysisCard::Kind::op: {
        spice::DcOptions dc;
        apply_newton(dc.newton);
        outcome.op = impl_->engine->run_op(dc);
        outcome.ok = outcome.op.converged;
        result.symbolic_factorizations += outcome.op.symbolic_factorizations;
        if (outcome.ok) {
          point = result.analyses.size();
          point_opts = dc;
        }
        break;
      }
      case spice::AnalysisCard::Kind::tran: {
        // The tran budget covers the initial OP too (analysis.hpp); the dc
        // copy carries the iteration-limit scale.
        apply_newton(card.tran.newton);
        apply_newton(card.tran.dc.newton);
        outcome.tran = impl_->engine->run_tran(card.tran, reusable(card.tran.dc));
        point = kNoPoint;
        outcome.ok = outcome.tran.ok;
        result.symbolic_factorizations += outcome.tran.symbolic_factorizations;
        break;
      }
      case spice::AnalysisCard::Kind::ac: {
        apply_newton(card.ac.dc.newton);
        outcome.ac = impl_->engine->run_ac(card.ac, reusable(card.ac.dc));
        outcome.ok = outcome.ac.ok;
        result.symbolic_factorizations += outcome.ac.symbolic_factorizations;
        break;
      }
    }
    result.analyses.push_back(std::move(outcome));
    const AnalysisOutcome& stored = result.analyses.back();
    if (on_analysis) on_analysis(result.analyses.size() - 1, stored);
    if (!stored.ok) {
      result.ok = false;
      result.failure = stored.failure();
      result.error = stored.error();
      result.exit_code = exit_code_for(result.failure);
      break;
    }
  }

  return result;
}

// ---------------------------------------------------------------------------
// Sweep-point dispatch (shared by usim --sweep and the server's sweep op)
// ---------------------------------------------------------------------------

std::string substitute_params(std::string text, const spice::SweepPoint& point) {
  for (const auto& [name, value] : point.params) {
    const std::string key = "{" + name + "}";
    std::string digits;
    append_g17(digits, value);
    for (std::size_t p = text.find(key); p != std::string::npos;
         p = text.find(key, p)) {
      text.replace(p, key.size(), digits);
      p += digits.size();
    }
  }
  return text;
}

namespace {

/// Per-node metrics stay readable on small circuits; array-scale circuits
/// (over 16 nodes — think TRANSARRAY) get min/max/mean aggregates instead.
bool per_node_metrics(const spice::Circuit& ckt) { return ckt.node_count() <= 16; }

/// The metric columns node_metrics adds for one analysis.
std::size_t node_metric_columns(const spice::Circuit& ckt) {
  return per_node_metrics(ckt) ? static_cast<std::size_t>(ckt.node_count()) : 3;
}

void node_metrics(spice::SweepOutcome& out, const spice::Circuit& ckt,
                  const std::string& prefix,
                  const std::function<double(int)>& value_of) {
  if (per_node_metrics(ckt)) {
    for (int i = 0; i < ckt.node_count(); ++i)
      out.metrics.emplace_back(prefix + ":" + ckt.node_name(i), value_of(i));
    return;
  }
  double lo = value_of(0);
  double hi = lo;
  double sum = 0.0;
  for (int i = 0; i < ckt.node_count(); ++i) {
    const double v = value_of(i);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
  }
  out.metrics.emplace_back(prefix + ":min", lo);
  out.metrics.emplace_back(prefix + ":max", hi);
  out.metrics.emplace_back(prefix + ":mean", sum / ckt.node_count());
}

/// Distills a finished sweep-point job into the point's scalar metrics.
spice::SweepOutcome distill(Session& session, const JobResult& result) {
  spice::SweepOutcome out;
  if (!result.ok) {
    out.failure = result.failure;
    out.error = result.error.empty() ? "analysis failed" : result.error;
    return out;
  }
  spice::Circuit& ckt = session.circuit();
  // Only a .tran outcome reads its card; with no cards the facade ran its
  // default .op, which reads none.
  const std::vector<spice::AnalysisCard>& cards = session.cards();
  std::size_t columns = 0;
  for (const AnalysisOutcome& oc : result.analyses)
    columns += node_metric_columns(ckt) + (oc.kind == spice::AnalysisCard::Kind::tran ? 1 : 0);
  out.metrics.reserve(columns);
  for (std::size_t a = 0; a < result.analyses.size(); ++a) {
    const AnalysisOutcome& oc = result.analyses[a];
    switch (oc.kind) {
      case spice::AnalysisCard::Kind::op:
        node_metrics(out, ckt, "op", [&](int i) { return oc.op.at(i); });
        break;
      case spice::AnalysisCard::Kind::tran: {
        const double tstop = cards[a].tran.tstop;
        node_metrics(out, ckt, "tran(tstop)",
                     [&](int i) { return oc.tran.sample(tstop, i); });
        out.metrics.emplace_back("tran:points",
                                 static_cast<double>(oc.tran.time.size()));
        break;
      }
      case spice::AnalysisCard::Kind::ac: {
        const std::size_t last = oc.ac.freq.size() - 1;
        node_metrics(out, ckt, "ac dB(fstop)",
                     [&](int i) { return oc.ac.magnitude_db(last, i); });
        break;
      }
    }
  }
  out.ok = true;
  return out;
}

/// The cards a sweep point runs: `cards` with every .ac card cut to its
/// last grid frequency, the only row distill reads — one complex solve
/// instead of the whole grid, at the same double. Empty when no card is .ac:
/// the session's own cards run then.
std::vector<spice::AnalysisCard> point_cards(const std::vector<spice::AnalysisCard>& cards) {
  const auto is_ac = [](const spice::AnalysisCard& c) {
    return c.kind == spice::AnalysisCard::Kind::ac;
  };
  if (std::none_of(cards.begin(), cards.end(), is_ac)) return {};
  std::vector<spice::AnalysisCard> out = cards;
  for (auto& card : out) {
    if (is_ac(card)) card.ac.f_start = card.ac.f_stop = card.ac.frequencies().back();
  }
  return out;
}

/// A worker thread's warm template: the session the last value-only
/// template built, plus the job a point runs on it. One per thread, and
/// sweep workers live as long as the process (common/thread_pool.hpp), so
/// a process holds at most one extra Session per sweep worker.
struct WarmTemplate {
  std::string text;                ///< the template netlist, compared per point
  std::string hdl_mode;
  std::vector<std::string> names;  ///< the point's parameter names, in order
  bool classified = false;         ///< a template parse has succeeded
  std::unique_ptr<Session> session;  ///< null: the template is structural
  /// point_cards(session->cards()) and one override per placeholder site,
  /// named once: a point writes only the options and the values.
  JobRequest request;
  std::vector<std::size_t> value_index;  ///< override i reads point.params[value_index[i]]
};

thread_local WarmTemplate t_warm;

/// Runs `point` on the thread's warm session: one Session::run with an
/// override per placeholder site. nullopt sends the point down the text
/// path — a structural template, a non-finite value, a template parse that
/// threw, a set_param refusal or a lint rejection — where it gets exactly
/// the outcome (or exception) a cold run gives it.
std::optional<spice::SweepOutcome> run_warm(const std::string& text,
                                            const spice::SweepPoint& point,
                                            const std::string& hdl_mode,
                                            const JobOptions& options) {
  for (const auto& [name, value] : point.params) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  WarmTemplate& w = t_warm;
  // A byte compare, not a hash: the template's identity is checked on every
  // point, and content_hash runs only when a template session is built.
  const bool same_names =
      std::equal(w.names.begin(), w.names.end(), point.params.begin(), point.params.end(),
                 [](const std::string& n, const auto& p) { return n == p.first; });
  if (w.text != text || w.hdl_mode != hdl_mode || !same_names) {
    w = WarmTemplate{};
    w.text = text;
    w.hdl_mode = hdl_mode;
    for (const auto& [name, value] : point.params) w.names.push_back(name);
  }
  if (!w.classified) {
    std::unique_ptr<Session> session;
    std::vector<spice::PlaceholderSite> sites;
    try {
      spice::Netlist net = parse_netlist(text, hdl_mode, &point);
      if (!net.structural_placeholders) {
        sites = std::move(net.placeholders);
        session = std::make_unique<Session>(std::move(net), content_hash(text, hdl_mode));
      }
    } catch (...) {
      return std::nullopt;  // e.g. a drawn value the constructor refuses
    }
    w.classified = true;
    // Warm only if every site reads back the value it was built with: a
    // factory that transforms a card value, or a site with no device of
    // that name (a macro card), leaves the template on the text path.
    for (const auto& site : sites) {
      spice::Device* dev = session->circuit().find_device(site.device);
      double v = 0.0;
      if (dev == nullptr || !dev->get_param(site.param, v) || v != point.value(site.name)) {
        session.reset();
        break;
      }
    }
    if (session) {
      w.request.analyses = point_cards(session->cards());
      for (auto& site : sites) {
        const auto name = std::find(w.names.begin(), w.names.end(), site.name);
        w.value_index.push_back(static_cast<std::size_t>(name - w.names.begin()));
        w.request.overrides.push_back({std::move(site.device), std::move(site.param), 0.0});
      }
    }
    w.session = std::move(session);
  }
  if (!w.session) return std::nullopt;

  JobRequest& jr = w.request;
  jr.options = options;
  for (std::size_t i = 0; i < jr.overrides.size(); ++i)
    jr.overrides[i].value = point.params[w.value_index[i]].second;
  JobResult result;
  try {
    result = w.session->run(jr);
  } catch (...) {
    t_warm = WarmTemplate{};  // the session's state is suspect now
    throw;
  }
  if (result.exit_code == 2 || result.failure.kind == FailureKind::lint_rejected)
    return std::nullopt;
  return distill(*w.session, result);
}

}  // namespace

bool sweep_template_warm(const std::string& text, const std::string& hdl_mode) {
  return t_warm.session != nullptr && t_warm.text == text && t_warm.hdl_mode == hdl_mode;
}

spice::SweepOutcome run_sweep_point(const std::string& text,
                                    const spice::SweepPoint& point,
                                    const std::string& hdl_mode,
                                    const JobOptions& options, int attempt) {
  JobOptions opts = options;
  opts.max_iters_scale = 1 << std::min(attempt, 4);
  if (auto warm = run_warm(text, point, hdl_mode, opts)) return std::move(*warm);
  Session session(substitute_params(text, point), hdl_mode);
  JobRequest jr;
  jr.options = opts;
  jr.analyses = point_cards(session.cards());
  return distill(session, session.run(jr));
}

// ---------------------------------------------------------------------------
// Sweep jobs (the one job behind usim --sweep/--mc and the server's sweep op)
// ---------------------------------------------------------------------------

std::size_t SweepPlan::point_count() const {
  std::size_t n = static_cast<std::size_t>(std::max(1, mc.samples));
  const auto times = [&n](std::size_t k) {
    n = k != 0 && n > SIZE_MAX / k ? SIZE_MAX : n * k;
  };
  for (const auto& axis : axes) times(axis.values.size());
  for (const auto& d : dists)
    if (d.kind == spice::ParamDist::Kind::corner) times(d.values.size());
  return n;
}

bool plan_sweep(const SweepRequest& request, SweepPlan& plan, std::string& error) {
  plan = SweepPlan{};
  plan.netlist = request.netlist;
  plan.hdl_mode = request.hdl_mode;
  try {
    plan.dists = spice::parse_param_dists(request.netlist);
    plan.measures = spice::parse_measures(request.netlist);
  } catch (const spice::NetlistError& e) {
    error = e.what();
    return false;
  }
  for (const auto& spec : request.specs) {
    std::string why;
    auto entry = spice::parse_sweep_entry(spec, &why);
    if (!entry) {
      error = "bad sweep spec '" + spec + "': " + why;
      return false;
    }
    const std::string& name = entry->is_dist ? entry->dist.name : entry->axis.name;
    // {i}, {i+N}, {i-N} belong to the netlist's .array construct; a sweep
    // parameter with one of those names would rewrite array placeholders
    // before the parser ever sees them.
    if (name == "i" || ((name.rfind("i+", 0) == 0 || name.rfind("i-", 0) == 0) &&
                        name.find_first_not_of("0123456789", 2) == std::string::npos)) {
      error = "sweep parameter '" + name +
              "' collides with .array {i} placeholders; pick another name";
      return false;
    }
    if (!entry->is_dist) {
      plan.axes.push_back(std::move(entry->axis));
      continue;
    }
    const auto it = std::find_if(plan.dists.begin(), plan.dists.end(),
                                 [&](const auto& d) { return d.name == name; });
    if (it == plan.dists.end()) {
      plan.dists.push_back(std::move(entry->dist));
    } else {
      *it = std::move(entry->dist);  // the request overrides the netlist card
    }
  }
  for (const auto& axis : plan.axes) {
    for (const auto& d : plan.dists) {
      if (axis.name == d.name) {
        error = "'" + axis.name + "' is both a sweep axis and a parameter distribution";
        return false;
      }
    }
  }
  const auto seed = parse_bounded<std::uint64_t>(request.seed, 0, UINT64_MAX);
  if (!seed) {
    error = "bad seed '" + request.seed +
            "' (want decimal digits, at most 18446744073709551615)";
    return false;
  }
  plan.mc.seed = *seed;
  plan.mc.samples = std::max(1, request.mc);
  if (plan.point_count() == 0) {
    error = "empty sweep grid";
    return false;
  }
  return true;
}

SweepRun run_sweep(const SweepPlan& plan, int threads,
                   const spice::SweepOptions& options, const JobOptions& job) {
  SweepRun run;
  run.grid = spice::mc_grid(plan.axes, plan.dists, plan.mc);
  run.outcomes = spice::SweepRunner(threads).run(
      run.grid,
      [&](const spice::SweepPoint& p, int attempt) {
        return run_sweep_point(plan.netlist, p, plan.hdl_mode, job, attempt);
      },
      options);
  spice::StatsRun& stats = run.stats;
  stats.seed_text = std::to_string(plan.mc.seed);
  stats.total_points = static_cast<long>(run.grid.size());
  stats.mc = plan.mc.samples;
  if (options.shard_count > 1) {
    stats.shard_index = options.shard_index;
    stats.shard_count = options.shard_count;
  }
  stats.measures = plan.measures;
  for (std::size_t i = 0; i < run.grid.size(); ++i)
    stats.add_outcome(static_cast<long>(i), run.grid[i], run.outcomes[i]);
  return run;
}

// ---------------------------------------------------------------------------
// One-shot free functions (a fresh engine per call)
// ---------------------------------------------------------------------------

spice::OpResult operating_point(spice::Circuit& circuit, const spice::DcOptions& opts) {
  return spice::AnalysisEngine(circuit).run_op(opts);
}

spice::TranResult transient(spice::Circuit& circuit, const spice::TranOptions& opts) {
  return spice::AnalysisEngine(circuit).run_tran(opts);
}

spice::AcResult ac_sweep(spice::Circuit& circuit, const spice::AcOptions& opts) {
  return spice::AnalysisEngine(circuit).run_ac(opts);
}

}  // namespace usys::api
