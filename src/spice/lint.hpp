// Static circuit diagnostics (Level 1 of the diagnostics layer).
//
// The MNA solver fails *dynamically*: a floating node or a voltage-source
// loop surfaces as a pivot failure (or a gmin-rescued garbage solution) deep
// inside Newton, long after the defect was visible in the netlist topology.
// lint_circuit() runs the classic structural checks on the bound circuit
// before any solve:
//
//   * ground connectivity (union-find over device stamp footprints):
//     floating nodes and disconnected islands;
//   * voltage-source loops (pure V/E/H loops are singular in every analysis;
//     loops closed through inductors/springs only at DC) and current-source
//     cutsets / capacitively-isolated nodes (no DC return path);
//   * structural-singularity prediction: maximum bipartite matching
//     (Dulmage–Mendelsohn-style row/column matching) on the *probed* stamp
//     sparsity — each device is evaluated once at a deterministic pseudo-
//     random iterate in block-capture mode, so the matched pattern is the
//     true Jf/Jq structure rather than the conservative CSR superset;
//   * parameter sanity (zero/negative/non-finite/suspicious-magnitude
//     R, C, L, mass, stiffness, damping);
//   * unconnected `.array` / TRANSARRAY cells (a cell sharing no non-ground
//     node with the rest of the circuit);
//   * HDL bytecode verifier findings (hdl/verify.hpp), re-surfaced per
//     device instance.
//
// Severity policy: findings the always-on gmin diagonal rescues numerically
// (floating nodes, missing DC paths, DC-only singularities) are warnings —
// the circuit still solves, the answer is just suspect. Only defects that
// make every analysis ill-posed (pure voltage-source loops, zero resistance,
// non-finite parameters, malformed bytecode) are errors; AnalysisEngine's
// automatic pre-solve pass acts on errors alone (FailureKind::lint_rejected)
// so lint never rejects a circuit the solver would have handled.
//
// The rule catalog lives in docs/diagnostics.md; tools/check_docs.py cross-
// checks kAllLintRules against it.
#pragma once

#include <string>
#include <vector>

#include "spice/circuit.hpp"

namespace usys::spice {

enum class LintSeverity { warning, error };

const char* to_string(LintSeverity sev) noexcept;

/// One finding. `entity` names the offending device or node; `line` is the
/// netlist line it came from (0 when the circuit was built from the API).
struct LintDiag {
  LintSeverity severity = LintSeverity::warning;
  std::string rule;
  std::string entity;
  int line = 0;
  std::string message;
};

struct LintReport {
  std::vector<LintDiag> diags;

  bool clean() const noexcept { return diags.empty(); }
  bool has_errors() const noexcept { return error_count() > 0; }
  int error_count() const noexcept;
  int warning_count() const noexcept;

  /// One finding per line: "severity[rule] entity (line N): message".
  std::string to_text() const;
  /// Machine-readable form (schema in docs/diagnostics.md).
  std::string to_json() const;
  /// Error messages joined with "; " (empty when error-free).
  std::string error_summary() const;
};

struct LintOptions {
  bool connectivity = true;  ///< ground connectivity, V-loops, DC paths, arrays
  bool matching = true;      ///< probed-pattern structural singularity
  bool parameters = true;    ///< device parameter sanity
  bool hdl = true;           ///< re-surface HDL bytecode verifier findings
};

/// How a device couples its pins, as seen by the connectivity analyses.
enum class LintEdgeKind {
  conductive,  ///< carries flow at DC and defines it locally (R, damper)
  vsource,     ///< voltage-defined in every analysis (V, E, H)
  vsource_dc,  ///< voltage-defined only at DC (L, spring)
  isource,     ///< imposes flow; provides no DC return path (I, G, F, force)
  reactive,    ///< couples only through d/dt (C, mass)
};

/// Handed to Device::lint so devices can describe their topology and check
/// their parameters without seeing the analyzer internals. All findings are
/// attributed to the device currently being linted.
class LintSink {
 public:
  /// Declares a coupling between two node unknowns (Circuit::kGround ok).
  void edge(int node_a, int node_b, LintEdgeKind kind);

  /// Default topology: a conductive clique over the node unknowns of the
  /// device's stamp_footprint() — the conservative choice for devices
  /// without a dedicated override.
  void footprint_clique(const Device& dev, LintEdgeKind kind = LintEdgeKind::conductive);

  /// Parameter sanity: non-finite -> error `param-invalid`; zero -> `param-zero`
  /// at `zero_sev`; negative -> warning `param-negative`.
  void check_value(const char* quantity, double value,
                   LintSeverity zero_sev = LintSeverity::warning);
  /// Warning `param-magnitude` when 0 < |value| outside [lo, hi].
  void check_magnitude(const char* quantity, double value, double lo, double hi);

  /// Free-form finding attributed to the current device.
  void report(LintSeverity sev, std::string rule, std::string message);

  /// Whether HDL bytecode-verifier findings are wanted (LintOptions::hdl);
  /// HdlDevice::lint checks this before re-running its verifier.
  bool wants_hdl() const noexcept { return hdl_; }

 private:
  friend class LintDriver;
  LintSink() = default;
  struct Edge {
    int a, b;
    LintEdgeKind kind;
    int device;  ///< index into Circuit::devices()
  };
  const Circuit* circuit_ = nullptr;
  std::vector<Edge> edges_;
  std::vector<LintDiag>* diags_ = nullptr;
  int current_device_ = -1;
  const Device* current_ptr_ = nullptr;
  bool topology_ = true;  ///< collect edges (LintOptions::connectivity)
  bool parameters_ = true;
  bool hdl_ = true;
  std::vector<int> scratch_;
};

/// True for the parameter-sanity rules (`param-*`): the only findings that
/// depend on device values rather than on circuit structure.
bool is_parameter_rule(const std::string& rule) noexcept;

/// Runs every enabled analysis on `circuit` (binds it first — may throw
/// CircuitError for defects the construction path already rejects).
LintReport lint_circuit(Circuit& circuit, const LintOptions& opts = {});

/// Every rule id the analyzer (and the HDL verifier) can emit, for the docs
/// cross-check. Terminated by nullptr.
extern const char* const kAllLintRules[];

}  // namespace usys::spice
