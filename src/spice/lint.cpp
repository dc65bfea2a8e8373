#include "spice/lint.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/union_find.hpp"
#include "spice/types.hpp"

namespace usys::spice {

const char* const kAllLintRules[] = {
    // Level 1: circuit / MNA structural analyzer (this file)
    "float-node", "no-dc-path", "isource-cutset", "vloop", "vloop-dc",
    "struct-singular", "param-invalid", "param-zero", "param-negative",
    "param-magnitude", "array-unconnected",
    // Level 2: HDL bytecode verifier (hdl/verify.cpp), re-surfaced per device
    "hdl-layout", "hdl-operand-bounds", "hdl-def-use", "hdl-grad-dropped",
    "hdl-dead-code", "hdl-const-stamp", "hdl-site-mismatch", nullptr};

const char* to_string(LintSeverity sev) noexcept {
  return sev == LintSeverity::error ? "error" : "warning";
}

int LintReport::error_count() const noexcept {
  int n = 0;
  for (const auto& d : diags) {
    if (d.severity == LintSeverity::error) ++n;
  }
  return n;
}

int LintReport::warning_count() const noexcept {
  return static_cast<int>(diags.size()) - error_count();
}

std::string LintReport::to_text() const {
  std::string out;
  for (const auto& d : diags) {
    out += to_string(d.severity);
    out += "[" + d.rule + "] " + d.entity;
    if (d.line > 0) out += str_format(" (line %d)", d.line);
    out += ": " + d.message + "\n";
  }
  out += str_format("lint: %d error(s), %d warning(s)\n", error_count(), warning_count());
  return out;
}

std::string LintReport::to_json() const {
  std::string out = "{\"findings\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const auto& d = diags[i];
    if (i > 0) out += ", ";
    out += str_format("{\"severity\": \"%s\", \"rule\": ", to_string(d.severity));
    json_append_escaped(out, d.rule);
    out += ", \"entity\": ";
    json_append_escaped(out, d.entity);
    out += str_format(", \"line\": %d, \"message\": ", d.line);
    json_append_escaped(out, d.message);
    out += '}';
  }
  out += str_format("], \"errors\": %d, \"warnings\": %d}\n", error_count(),
                    warning_count());
  return out;
}

std::string LintReport::error_summary() const {
  std::string out;
  for (const auto& d : diags) {
    if (d.severity != LintSeverity::error) continue;
    if (!out.empty()) out += "; ";
    out += "[" + d.rule + "] " + d.entity;
    if (d.line > 0) out += str_format(" (line %d)", d.line);
    out += ": " + d.message;
  }
  return out;
}

// ---------------------------------------------------------------------------
// LintSink
// ---------------------------------------------------------------------------

void LintSink::edge(int node_a, int node_b, LintEdgeKind kind) {
  if (!topology_) return;
  edges_.push_back({node_a, node_b, kind, current_device_});
}

void LintSink::footprint_clique(const Device& dev, LintEdgeKind kind) {
  if (!topology_) return;
  scratch_.clear();
  dev.stamp_footprint(scratch_);
  const int n_nodes = circuit_->node_count();
  std::vector<int> pins;
  for (const int u : scratch_) {
    if (u < n_nodes) pins.push_back(u);  // node unknowns and ground (-1)
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  for (std::size_t i = 0; i + 1 < pins.size(); ++i) {
    for (std::size_t j = i + 1; j < pins.size(); ++j) {
      edge(pins[i], pins[j], kind);
    }
  }
}

void LintSink::report(LintSeverity sev, std::string rule, std::string message) {
  LintDiag d;
  d.severity = sev;
  d.rule = std::move(rule);
  d.entity = current_ptr_ != nullptr ? "device '" + current_ptr_->name() + "'" : "circuit";
  d.line = current_ptr_ != nullptr ? current_ptr_->netlist_line() : 0;
  d.message = std::move(message);
  diags_->push_back(std::move(d));
}

void LintSink::check_value(const char* quantity, double value, LintSeverity zero_sev) {
  if (!parameters_) return;
  if (!std::isfinite(value)) {
    report(LintSeverity::error, "param-invalid",
           str_format("%s is not finite (%g)", quantity, value));
  } else if (value == 0.0) {
    report(zero_sev, "param-zero",
           str_format("%s is zero%s", quantity,
                      zero_sev == LintSeverity::error
                          ? " — the stamp divides by it"
                          : ""));
  } else if (value < 0.0) {
    report(LintSeverity::warning, "param-negative",
           str_format("%s is negative (%g) — only meaningful for idealized "
                      "compensation elements",
                      quantity, value));
  }
}

void LintSink::check_magnitude(const char* quantity, double value, double lo, double hi) {
  if (!parameters_) return;
  if (!std::isfinite(value) || value == 0.0) return;  // handled by check_value
  const double mag = std::fabs(value);
  if (mag < lo || mag > hi) {
    report(LintSeverity::warning, "param-magnitude",
           str_format("%s magnitude %g is outside the plausible range [%g, %g] — "
                      "check the engineering suffix",
                      quantity, value, lo, hi));
  }
}

// Default device topology: conservative conductive clique over the stamp
// footprint's node unknowns. Devices whose coupling is source-like or purely
// reactive override this (devices_passive/source/controlled, HdlDevice).
void Device::lint(LintSink& sink) const { sink.footprint_clique(*this); }

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

namespace {

using usys::UnionFind;  // common/union_find.hpp

/// Node/device names listed per aggregate finding; the rest become "+K more".
constexpr std::size_t kMaxNames = 6;

/// Deterministic probe iterate: pseudo-random, bounded away from the special
/// values 0 and 1 so products/differences don't cancel structurally present
/// entries by luck. Two phases give two independent probes.
double probe_value(int i, int phase) {
  const double golden = 0.61803398874989484;
  const double frac = std::fmod(golden * static_cast<double>(i + 3 + 17 * phase), 1.0);
  return (phase == 0 ? 0.31 : -0.27) + 0.53 * frac;
}

}  // namespace

// Named (not anonymous-namespace) so the LintSink friend declaration applies.
class LintDriver {
 public:
  LintDriver(Circuit& circuit, const LintOptions& opts, LintReport& rep)
      : circuit_(circuit), opts_(opts), rep_(rep) {}

  void run() {
    circuit_.bind_all();
    collect();
    if (opts_.connectivity) {
      float_nodes();
      dc_paths();
      vloops();
      arrays();
    }
    if (opts_.matching) matching();
  }

 private:
  std::string node_entity(int id) const { return "node '" + circuit_.node_name(id) + "'"; }

  void diag(LintSeverity sev, const char* rule, std::string entity, int line,
            std::string message) {
    rep_.diags.push_back({sev, rule, std::move(entity), line, std::move(message)});
  }

  /// Joins up to kMaxNames entity names, "+K more" for the rest.
  std::string name_list(const std::vector<std::string>& names) const {
    std::string out;
    for (std::size_t i = 0; i < names.size() && i < kMaxNames; ++i) {
      if (i > 0) out += ", ";
      out += names[i];
    }
    if (names.size() > kMaxNames)
      out += str_format(" (+%zu more)", names.size() - kMaxNames);
    return out;
  }

  void collect() {
    sink_.circuit_ = &circuit_;
    sink_.diags_ = &rep_.diags;
    sink_.topology_ = opts_.connectivity;  // only the connectivity rules read edges
    sink_.parameters_ = opts_.parameters;
    sink_.hdl_ = opts_.hdl;
    const auto& devs = circuit_.devices();
    for (std::size_t i = 0; i < devs.size(); ++i) {
      sink_.current_device_ = static_cast<int>(i);
      sink_.current_ptr_ = devs[i].get();
      devs[i]->lint(sink_);
    }
    sink_.current_device_ = -1;
    sink_.current_ptr_ = nullptr;
  }

  /// Ground connectivity over ALL unknowns (nodes and branches): every
  /// device's footprint is one hyper-edge, plus the node-level lint edges.
  /// Components without the reference are floating islands.
  void float_nodes() {
    const int n = circuit_.unknown_count();
    const int ground = n;  // virtual reference vertex
    UnionFind uf(n + 1);
    std::vector<int> fp;
    for (const auto& dev : circuit_.devices()) {
      fp.clear();
      dev->stamp_footprint(fp);
      for (std::size_t i = 1; i < fp.size(); ++i) {
        uf.unite(fp[i - 1] < 0 ? ground : fp[i - 1], fp[i] < 0 ? ground : fp[i]);
      }
    }
    for (const auto& e : sink_.edges_) {
      uf.unite(e.a < 0 ? ground : e.a, e.b < 0 ? ground : e.b);
    }

    std::map<int, std::vector<int>> comps;  // root -> member unknowns
    const int groot = uf.find(ground);
    for (int u = 0; u < n; ++u) {
      const int r = uf.find(u);
      if (r != groot) comps[r].push_back(u);
    }
    floating_.assign(static_cast<std::size_t>(n), 0);
    for (const auto& [root, members] : comps) {
      (void)root;
      std::vector<std::string> names;
      int line = 0;
      for (const int u : members) {
        floating_[static_cast<std::size_t>(u)] = 1;
        if (u < circuit_.node_count()) {
          names.push_back("'" + circuit_.node_name(u) + "'");
          if (line == 0) line = circuit_.node_line(u);
        }
      }
      const std::string entity =
          names.empty() ? std::string("circuit") : "node " + names.front();
      diag(LintSeverity::warning, "float-node", entity, line,
           str_format("%zu unknown(s) form an island with no connection to "
                      "ground/reference: ",
                      members.size()) +
               (names.empty() ? std::string("(branch unknowns only)") : name_list(names)) +
               " — only the gmin diagonal anchors them");
    }
  }

  /// Classic DC-path check over the node graph: conductive, vsource, and
  /// vsource_dc couplings conduct at DC; isource and reactive don't. Nodes
  /// already reported floating are skipped (one finding per defect).
  void dc_paths() {
    const int n = circuit_.node_count();
    const int ground = n;
    UnionFind uf(n + 1);
    for (const auto& e : sink_.edges_) {
      if (e.kind == LintEdgeKind::conductive || e.kind == LintEdgeKind::vsource ||
          e.kind == LintEdgeKind::vsource_dc) {
        uf.unite(e.a < 0 ? ground : e.a, e.b < 0 ? ground : e.b);
      }
    }
    std::map<int, std::vector<int>> comps;
    const int groot = uf.find(ground);
    for (int u = 0; u < n; ++u) {
      const int r = uf.find(u);
      if (r != groot) comps[r].push_back(u);
    }
    // Which components have an incident current source?
    std::set<int> driven;
    for (const auto& e : sink_.edges_) {
      if (e.kind != LintEdgeKind::isource) continue;
      for (const int v : {e.a, e.b}) {
        if (v >= 0 && uf.find(v) != groot) driven.insert(uf.find(v));
      }
    }
    for (const auto& [root, members] : comps) {
      const bool all_floating =
          std::all_of(members.begin(), members.end(), [&](int u) {
            return u < static_cast<int>(floating_.size()) &&
                   floating_[static_cast<std::size_t>(u)] != 0;
          });
      if (all_floating) continue;  // already reported by float-node
      std::vector<std::string> names;
      for (const int u : members) names.push_back("'" + circuit_.node_name(u) + "'");
      const int line = circuit_.node_line(members.front());
      if (driven.count(root) != 0U) {
        diag(LintSeverity::warning, "isource-cutset", node_entity(members.front()), line,
             "a current source drives node(s) " + name_list(names) +
                 " with no DC return path to ground — the DC point rides on gmin "
                 "(expect extreme efforts)");
      } else {
        diag(LintSeverity::warning, "no-dc-path", node_entity(members.front()), line,
             "node(s) " + name_list(names) +
                 " have no DC path to ground (capacitively/reactively isolated); "
                 "the DC point is defined only by gmin");
      }
    }
  }

  /// Voltage-source loop detection: a vsource edge closing a cycle in the
  /// vsource-edge graph makes every analysis singular (error); closing one
  /// only after adding the DC-shorting inductor/spring edges is singular
  /// only at DC (warning).
  void vloops() {
    const int n = circuit_.node_count();
    const int ground = n;
    UnionFind uf(n + 1);
    const auto& devs = circuit_.devices();
    const auto dev_of = [&](int idx) -> const Device* {
      return idx >= 0 && idx < static_cast<int>(devs.size()) ? devs[static_cast<std::size_t>(idx)].get()
                                                             : nullptr;
    };
    for (const auto& e : sink_.edges_) {
      if (e.kind != LintEdgeKind::vsource) continue;
      if (!uf.unite(e.a < 0 ? ground : e.a, e.b < 0 ? ground : e.b)) {
        const Device* d = dev_of(e.device);
        diag(LintSeverity::error, "vloop",
             d != nullptr ? "device '" + d->name() + "'" : "circuit",
             d != nullptr ? d->netlist_line() : 0,
             "closes a loop of voltage-defined elements — the MNA system is "
             "singular in every analysis");
      }
    }
    for (const auto& e : sink_.edges_) {
      if (e.kind != LintEdgeKind::vsource_dc) continue;
      if (!uf.unite(e.a < 0 ? ground : e.a, e.b < 0 ? ground : e.b)) {
        const Device* d = dev_of(e.device);
        diag(LintSeverity::warning, "vloop-dc",
             d != nullptr ? "device '" + d->name() + "'" : "circuit",
             d != nullptr ? d->netlist_line() : 0,
             "closes a DC loop of voltage-defined elements through "
             "inductors/springs — the DC current split is indeterminate "
             "(transient/AC are fine)");
      }
    }
  }

  /// `.array` / TRANSARRAY cells that share no non-ground node with any
  /// device outside their own cell: the cell simulates, but it is
  /// electrically/mechanically severed from the rest of the array.
  void arrays() {
    const auto& devs = circuit_.devices();
    struct NodeOwner {
      long first = -2;  ///< owner id of first sighting (-2 = unseen)
      bool shared = false;
    };
    std::vector<NodeOwner> owners(static_cast<std::size_t>(circuit_.node_count()));
    // Owner id: -1 for loose devices, a dense id per (array, cell) otherwise.
    std::map<std::pair<std::string, int>, long> cell_ids;
    std::vector<long> owner_of(devs.size(), -1);
    for (std::size_t i = 0; i < devs.size(); ++i) {
      if (devs[i]->array_name().empty()) continue;
      const auto key = std::make_pair(devs[i]->array_name(), devs[i]->array_cell());
      const auto [it, inserted] = cell_ids.emplace(key, static_cast<long>(cell_ids.size()));
      (void)inserted;
      owner_of[i] = it->second;
    }
    if (cell_ids.empty()) return;

    std::vector<std::vector<int>> cell_nodes(cell_ids.size());
    std::vector<int> first_dev(cell_ids.size(), -1);
    std::vector<int> fp;
    for (std::size_t i = 0; i < devs.size(); ++i) {
      fp.clear();
      devs[i]->stamp_footprint(fp);
      const long owner = owner_of[i];
      for (const int u : fp) {
        if (u < 0 || u >= circuit_.node_count()) continue;
        NodeOwner& rec = owners[static_cast<std::size_t>(u)];
        if (rec.first == -2) {
          rec.first = owner;
        } else if (rec.first != owner) {
          rec.shared = true;
        }
        if (owner >= 0) {
          auto& list = cell_nodes[static_cast<std::size_t>(owner)];
          if (std::find(list.begin(), list.end(), u) == list.end()) list.push_back(u);
          if (first_dev[static_cast<std::size_t>(owner)] < 0)
            first_dev[static_cast<std::size_t>(owner)] = static_cast<int>(i);
        }
      }
    }
    for (const auto& [key, id] : cell_ids) {
      const auto& nodes = cell_nodes[static_cast<std::size_t>(id)];
      if (nodes.empty()) continue;
      const bool connected = std::any_of(nodes.begin(), nodes.end(), [&](int u) {
        return owners[static_cast<std::size_t>(u)].shared;
      });
      if (connected) continue;
      const Device* d = devs[static_cast<std::size_t>(first_dev[static_cast<std::size_t>(id)])].get();
      diag(LintSeverity::warning, "array-unconnected", "device '" + d->name() + "'",
           d->netlist_line(),
           str_format("array '%s' cell %d shares no non-ground node with the rest of "
                      "the circuit — a rail or chain connection is probably missing",
                      key.first.c_str(), key.second));
    }
  }

  /// Structural-singularity prediction: maximum bipartite row/column matching
  /// on the PROBED stamp pattern. Each device is evaluated twice at
  /// deterministic pseudo-random iterates into a private k*k block, so the
  /// matched pattern is the true Jf (and Jf+Jq) structure — the compiled CSR
  /// pattern is a conservative superset (full footprint blocks) that would
  /// make every matching trivially perfect. The always-on gmin diagonal is
  /// included on node rows, mirroring the solver; an unmatched row therefore
  /// means a zero pivot no gmin can rescue.
  void matching() {
    const int n = circuit_.unknown_count();
    if (n == 0) return;
    const auto& devs = circuit_.devices();
    std::vector<int> fp;

    std::vector<std::vector<int>> adj_dc(static_cast<std::size_t>(n));
    std::vector<std::vector<int>> adj_tr(static_cast<std::size_t>(n));
    branch_owner_.assign(static_cast<std::size_t>(n), -1);

    DVector x1(static_cast<std::size_t>(n));
    DVector x2(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      x1[static_cast<std::size_t>(i)] = probe_value(i, 0);
      x2[static_cast<std::size_t>(i)] = probe_value(i, 1);
    }

    std::vector<int> local_of(static_cast<std::size_t>(n), -1);
    std::vector<int> slots;
    std::vector<double> jf;
    std::vector<double> jq;
    // Residual scratch: devices stamp f/q by global row, and the probe reads
    // only the Jacobian blocks, so these are never reset or inspected.
    DVector f(static_cast<std::size_t>(n), 0.0);
    DVector q(static_cast<std::size_t>(n), 0.0);
    std::vector<char> mf;
    std::vector<char> mq;
    for (std::size_t di = 0; di < devs.size(); ++di) {
      fp.clear();
      devs[di]->stamp_footprint(fp);
      std::sort(fp.begin(), fp.end());
      fp.erase(std::unique(fp.begin(), fp.end()), fp.end());
      if (!fp.empty() && fp.front() < 0) fp.erase(fp.begin());  // drop ground
      const int k = static_cast<int>(fp.size());
      if (k == 0) continue;
      for (int i = 0; i < k; ++i) {
        local_of[static_cast<std::size_t>(fp[static_cast<std::size_t>(i)])] = i;
        if (fp[static_cast<std::size_t>(i)] >= circuit_.node_count() &&
            branch_owner_[static_cast<std::size_t>(fp[static_cast<std::size_t>(i)])] < 0) {
          branch_owner_[static_cast<std::size_t>(fp[static_cast<std::size_t>(i)])] =
              static_cast<int>(di);
        }
      }
      slots.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
      for (int s = 0; s < k * k; ++s) slots[static_cast<std::size_t>(s)] = s;
      mf.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);
      mq.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0);

      for (const DVector* x : {&x1, &x2}) {
        jf.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0.0);
        jq.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k), 0.0);
        SparseStampSink sink;
        sink.local_of = local_of.data();
        sink.slots = slots.data();
        sink.k = k;
        sink.jf_vals = jf.data();
        sink.jq_vals = jq.data();
        EvalCtx ctx;
        ctx.mode = AnalysisMode::dc;
        ctx.x = x;
        ctx.f = &f;
        ctx.q = &q;
        ctx.sparse = &sink;
        devs[di]->evaluate(ctx);
        for (int s = 0; s < k * k; ++s) {
          // NaN counts as structurally present (NaN != 0.0 is true).
          if (jf[static_cast<std::size_t>(s)] != 0.0) mf[static_cast<std::size_t>(s)] = 1;
          if (jq[static_cast<std::size_t>(s)] != 0.0) mq[static_cast<std::size_t>(s)] = 1;
        }
      }
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          const int s = i * k + j;
          const int gi = fp[static_cast<std::size_t>(i)];
          const int gj = fp[static_cast<std::size_t>(j)];
          if (mf[static_cast<std::size_t>(s)] != 0) adj_dc[static_cast<std::size_t>(gi)].push_back(gj);
          if (mf[static_cast<std::size_t>(s)] != 0 || mq[static_cast<std::size_t>(s)] != 0)
            adj_tr[static_cast<std::size_t>(gi)].push_back(gj);
        }
      }
      for (const int u : fp) local_of[static_cast<std::size_t>(u)] = -1;
    }

    // gmin anchors every node-row diagonal in both regimes.
    for (int r = 0; r < circuit_.node_count(); ++r) {
      adj_dc[static_cast<std::size_t>(r)].push_back(r);
      adj_tr[static_cast<std::size_t>(r)].push_back(r);
    }
    for (auto* adj : {&adj_dc, &adj_tr}) {
      for (auto& row : *adj) {
        std::sort(row.begin(), row.end());
        row.erase(std::unique(row.begin(), row.end()), row.end());
      }
    }

    const std::vector<int> un_tr = unmatched_rows(adj_tr);
    if (!un_tr.empty()) {
      report_unmatched(un_tr, "in every analysis (the Jf+Jq pattern admits no perfect "
                              "row/column matching even with gmin)");
      return;  // the DC verdict would be implied noise
    }
    const std::vector<int> un_dc = unmatched_rows(adj_dc);
    if (!un_dc.empty()) {
      report_unmatched(un_dc, "at DC (the Jf pattern admits no perfect row/column "
                              "matching even with gmin; transient/AC are structurally "
                              "fine)");
    }
  }

  /// Hopcroft–Karp maximum bipartite matching, O(E*sqrt(V)). Kuhn's
  /// algorithm hits its O(V*E) worst case here: on branch-row chains
  /// (spring/inductor ladders) the greedy seed leaves every branch row
  /// unmatched and each augmenting path walks the whole chain, which turned
  /// the n ~ 3000 resonator-array lint into tens of milliseconds. The BFS
  /// layering bounds the phase count by sqrt(V) instead. Returns the
  /// unmatched rows.
  std::vector<int> unmatched_rows(const std::vector<std::vector<int>>& adj) const {
    const int n = static_cast<int>(adj.size());
    const auto at = [](int i) { return static_cast<std::size_t>(i); };
    const int kInf = n + 1;
    std::vector<int> row_of_col(at(n), -1);
    std::vector<int> col_of_row(at(n), -1);
    for (int r = 0; r < n; ++r) {
      for (const int c : adj[at(r)]) {
        if (row_of_col[at(c)] < 0) {
          row_of_col[at(c)] = r;
          col_of_row[at(r)] = c;
          break;
        }
      }
    }
    std::vector<int> dist(at(n));
    std::vector<int> ptr(at(n));       // per-phase DFS edge cursor
    std::vector<int> queue;            // BFS worklist (index-scanned)
    std::vector<int> stack;            // DFS row path
    std::vector<int> taken;            // column chosen at each DFS depth
    queue.reserve(at(n));
    for (;;) {
      // BFS: layer matched rows by alternating-path depth from free rows.
      queue.clear();
      for (int r = 0; r < n; ++r) {
        dist[at(r)] = col_of_row[at(r)] < 0 ? 0 : kInf;
        if (dist[at(r)] == 0) queue.push_back(r);
      }
      bool free_col_reachable = false;
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        const int r = queue[qi];
        for (const int c : adj[at(r)]) {
          const int owner = row_of_col[at(c)];
          if (owner < 0) {
            free_col_reachable = true;
          } else if (dist[at(owner)] == kInf) {
            dist[at(owner)] = dist[at(r)] + 1;
            queue.push_back(owner);
          }
        }
      }
      if (!free_col_reachable) break;
      // DFS along the layering, one shortest augmenting path per free row.
      std::fill(ptr.begin(), ptr.end(), 0);
      for (int start = 0; start < n; ++start) {
        if (col_of_row[at(start)] >= 0) continue;
        stack.assign(1, start);
        taken.assign(1, -1);
        while (!stack.empty()) {
          const int r = stack.back();
          bool moved = false;
          while (ptr[at(r)] < static_cast<int>(adj[at(r)].size())) {
            const int c = adj[at(r)][at(ptr[at(r)]++)];
            const int owner = row_of_col[at(c)];
            if (owner < 0) {
              // Free column: flip the whole path row<->column pairing.
              taken.back() = c;
              for (std::size_t d = stack.size(); d-- > 0;) {
                row_of_col[at(taken[d])] = stack[d];
                col_of_row[at(stack[d])] = taken[d];
              }
              stack.clear();
              moved = true;
              break;
            }
            if (dist[at(owner)] == dist[at(r)] + 1) {
              taken.back() = c;
              stack.push_back(owner);
              taken.push_back(-1);
              moved = true;
              break;
            }
          }
          if (!moved) {
            dist[at(r)] = kInf;  // dead end this phase
            stack.pop_back();
            taken.pop_back();
          }
        }
      }
    }
    std::vector<int> unmatched;
    for (int r = 0; r < n; ++r) {
      if (col_of_row[at(r)] < 0) unmatched.push_back(r);
    }
    return unmatched;
  }

  void report_unmatched(const std::vector<int>& rows, const char* regime) {
    std::vector<std::string> names;
    std::string entity = "circuit";
    int line = 0;
    for (const int r : rows) {
      if (r < circuit_.node_count()) {
        names.push_back("node '" + circuit_.node_name(r) + "'");
        if (entity == "circuit") {
          entity = node_entity(r);
          line = circuit_.node_line(r);
        }
      } else {
        const int owner = branch_owner_[static_cast<std::size_t>(r)];
        const Device* d =
            owner >= 0 ? circuit_.devices()[static_cast<std::size_t>(owner)].get() : nullptr;
        names.push_back(d != nullptr ? "branch of device '" + d->name() + "'"
                                     : str_format("branch unknown %d", r));
        if (entity == "circuit" && d != nullptr) {
          entity = "device '" + d->name() + "'";
          line = d->netlist_line();
        }
      }
    }
    diag(LintSeverity::warning, "struct-singular", std::move(entity), line,
         str_format("%zu equation row(s) are structurally singular %s: ", rows.size(),
                    regime) +
             name_list(names));
  }

  Circuit& circuit_;
  const LintOptions& opts_;
  LintReport& rep_;
  LintSink sink_;
  std::vector<char> floating_;
  std::vector<int> branch_owner_;
};

bool is_parameter_rule(const std::string& rule) noexcept {
  return rule.starts_with("param-");
}

LintReport lint_circuit(Circuit& circuit, const LintOptions& opts) {
  LintReport rep;
  LintDriver(circuit, opts, rep).run();
  return rep;
}

}  // namespace usys::spice
