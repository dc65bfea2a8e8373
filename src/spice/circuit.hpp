// Circuit graph: typed nodes, devices, and the unknown-vector layout.
//
// Following the paper's FI (force-current) analogy, mechanical and electrical
// nets live in the *same* nodal system: a node's across variable is voltage
// for electrical nodes and velocity for mechanical ones; KCL rows sum
// currents or forces respectively. The ground node (index -1) is the shared
// reference: 0 V for electrical, the fixed mechanical frame for mechanical.
//
// Unknown vector layout: [node efforts (0..n_nodes-1) | branch unknowns].
// Branch unknowns (currents through voltage-defined elements, fluxes etc.)
// are allocated by devices during bind().
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/nature.hpp"
#include "spice/types.hpp"

namespace usys::spice {

class Circuit;
class MnaPattern;
class LintSink;

/// Raised on malformed circuits: nature mismatches, unknown nodes,
/// duplicate device names.
class CircuitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Handed to Device::bind so devices can allocate branch unknowns and verify
/// pin natures without seeing the whole Circuit API.
class Binder {
 public:
  explicit Binder(Circuit& c) : circuit_(c) {}

  /// Allocates one branch unknown (returned index is into the global
  /// unknown vector). `through_nature` sets its convergence tolerance class.
  int alloc_branch(Nature through_nature);

  /// Unknowns allocated so far (nodes + branches of already-bound devices).
  /// Binding is sequential, so every index the current device references is
  /// below this watermark — the bound the HDL bytecode verifier checks
  /// against at bind time.
  int unknown_watermark() const noexcept;

  /// Nature of a node id; ground accepts any nature.
  Nature node_nature(int node) const;

  /// Throws CircuitError unless `node` is ground or has nature `expected`.
  void require_nature(int node, Nature expected, const std::string& device_name) const;

 private:
  Circuit& circuit_;
};

/// Base class of everything that stamps equations. See types.hpp for the
/// charge-oriented stamp contract.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Resolve indices / allocate branch unknowns. Called exactly once.
  virtual void bind(Binder& binder) = 0;

  /// Stamp f, q, Jf, Jq at the iterate in `ctx`. Must be callable any number
  /// of times per step (Newton re-evaluates).
  virtual void evaluate(EvalCtx& ctx) = 0;

  /// Stamp-pattern registration, called after bind: append every unknown
  /// index (node or branch; ground -1 entries are ignored) that evaluate()
  /// may reference as a stamp row or column in *any* analysis mode. Every
  /// device must declare one. The pattern compiler reserves the full
  /// footprint x footprint Jacobian block, so a conservative superset is
  /// fine — but a Jacobian stamp outside the device's own footprint is a
  /// hard error at assembly time, naming the device.
  virtual void stamp_footprint(std::vector<int>& out) const = 0;

  /// True when evaluate() may stamp q, the stored quantity (charge, flux,
  /// momentum). The transient's charge harvest after each accepted step
  /// evaluates only these devices (NewtonSolver::harvest_charge), so a
  /// device that returns false must never call EvalCtx::q_add. Every device
  /// must declare it: a default of true would harvest every chargeless
  /// device, and a default of false would drop a new device's charge.
  virtual bool stores_charge() const noexcept = 0;

  /// Complex AC excitation (small-signal sources). Row indexing matches the
  /// real unknown vector. Default: no AC contribution.
  virtual void ac_rhs(ZVector& rhs) const { (void)rhs; }

  /// Waveform corner times the transient must step onto exactly.
  virtual void breakpoints(std::vector<double>& out) const { (void)out; }

  /// Called once before a transient run with the DC solution, so devices can
  /// arm internal integral states.
  virtual void start_transient(const DVector& x_dc) { (void)x_dc; }

  /// Called after each accepted transient step to commit internal states.
  virtual void accept(const AcceptCtx& ctx) { (void)ctx; }

  /// Distinct run-time boundary-condition (HDL ASSERT) sites this device
  /// has seen fire so far; 0 for devices without such checks. The transient
  /// engine polls this after accepted steps when TranOptions::fail_on_assert
  /// is set, turning a warned-once violation into a structured failure.
  virtual int assert_violations() const { return 0; }

  /// Static-diagnostics hook (spice/lint.hpp): describe pin couplings and
  /// check parameters. The default emits a conductive clique over the
  /// stamp_footprint() node unknowns — conservative (it can mask a missing
  /// DC path, never invent one falsely... the reverse), so devices with
  /// sources or reactive coupling override it. Defined in lint.cpp.
  virtual void lint(LintSink& sink) const;

  /// Generic numeric-parameter access, keyed by the lower-case netlist
  /// parameter name ("r", "c", "l", "m", "k", "alpha", "dc"). The warm-reuse
  /// path (api::Session overrides, the server's parameter-delta jobs) edits
  /// bound circuits through this instead of re-parsing. A set changes
  /// stamped VALUES only, never structure, so the compiled MNA pattern
  /// stays valid — but callers must AnalysisEngine::rebind() before the
  /// next run. Both return false for keys the device does not expose (the
  /// default), and set_param additionally rejects exactly the values the
  /// device's constructor throws on — so an override and a cold build of the
  /// same value agree; values the constructor accepts but that make no
  /// physical sense (zero stiffness, NaN) are the parameter lint's to reject.
  virtual bool set_param(std::string_view key, double value) {
    (void)key;
    (void)value;
    return false;
  }
  virtual bool get_param(std::string_view key, double& out) const {
    (void)key;
    (void)out;
    return false;
  }

  /// Netlist provenance, stamped by the parser (0 = built via the API).
  void set_netlist_line(int line) noexcept { netlist_line_ = line; }
  int netlist_line() const noexcept { return netlist_line_; }

  /// `.array` / TRANSARRAY provenance: which expansion cell created this
  /// device (empty name = not array-expanded). Used by the lint
  /// `array-unconnected` rule.
  void set_array_cell(std::string array_name, int cell) {
    array_name_ = std::move(array_name);
    array_cell_ = cell;
  }
  const std::string& array_name() const noexcept { return array_name_; }
  int array_cell() const noexcept { return array_cell_; }

 private:
  std::string name_;
  int netlist_line_ = 0;
  std::string array_name_;
  int array_cell_ = -1;
};

/// The circuit under construction / simulation.
class Circuit {
 public:
  Circuit();
  ~Circuit();

  /// The ground / reference pseudo-index.
  static constexpr int kGround = -1;

  /// Adds (or returns) a named node of the given nature. Name "0" is ground.
  /// Re-adding with a different nature throws.
  int add_node(std::string_view name, Nature nature);

  /// Looks up an existing node; throws CircuitError if missing.
  int node(std::string_view name) const;

  /// Non-throwing lookup: nullopt if the node does not exist (ground names
  /// return kGround).
  std::optional<int> find_node(std::string_view name) const noexcept;

  /// Node id valid? (ground is not a regular id)
  int node_count() const noexcept { return static_cast<int>(nodes_.size()); }

  const std::string& node_name(int id) const { return nodes_.at(static_cast<std::size_t>(id)).name; }
  Nature node_nature(int id) const { return nodes_.at(static_cast<std::size_t>(id)).nature; }

  /// Netlist line where a node first appeared (0 = unknown / API-built).
  /// The parser records it on first sight; later sightings keep the first.
  void set_node_line(int id, int line);
  int node_line(int id) const { return nodes_.at(static_cast<std::size_t>(id)).line; }

  /// Constructs a device in place and takes ownership. Returns a reference
  /// that stays valid for the circuit's lifetime.
  template <typename D, typename... Args>
  D& add(Args&&... args) {
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    add_device(std::move(dev));
    return ref;
  }

  void add_device(std::unique_ptr<Device> dev);

  const std::vector<std::unique_ptr<Device>>& devices() const noexcept { return devices_; }

  /// Finds a device by name (nullptr if absent).
  Device* find_device(std::string_view name) noexcept;

  /// Finalizes the unknown layout: binds all devices, allocating branch
  /// unknowns. Idempotent. Called automatically by the analyses.
  void bind_all();
  bool bound() const noexcept { return bound_; }

  /// Total unknown count (nodes + branches); valid after bind_all().
  int unknown_count() const noexcept { return unknown_count_; }
  int branch_count() const noexcept { return unknown_count_ - node_count(); }

  /// Per-unknown absolute convergence tolerance, sized by the unknown's
  /// nature (voltages vs currents vs velocities need different floors).
  const DVector& abstol() const noexcept { return abstol_; }

  /// Nature of unknown i (node effort nature, or branch through-nature).
  Nature unknown_nature(int i) const { return unknown_natures_.at(static_cast<std::size_t>(i)); }

  /// The compiled sparse stamp pattern (spice/mna.hpp), built lazily from
  /// the devices' stamp_footprint() registrations. Calls bind_all() first;
  /// stable afterwards because devices cannot be added once bound.
  const MnaPattern& mna_pattern();

 private:
  friend class Binder;
  int alloc_branch_unknown(Nature through_nature);

  struct NodeRec {
    std::string name;
    Nature nature;
    int line = 0;
  };

  std::vector<NodeRec> nodes_;
  std::vector<std::unique_ptr<Device>> devices_;
  // Name -> index maps so array-scale netlists (thousands of nodes/devices)
  // build in linear time instead of quadratic name scans. Transparent
  // hashing keeps string_view lookups allocation-free.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex = std::unordered_map<std::string, int, NameHash, std::equal_to<>>;
  NameIndex node_index_;
  NameIndex device_index_;
  std::vector<Nature> unknown_natures_;
  DVector abstol_;
  int unknown_count_ = 0;
  bool bound_ = false;
  std::unique_ptr<MnaPattern> mna_pattern_;
};

/// Absolute tolerance used for unknowns of a nature's effort variable.
double effort_abstol(Nature n) noexcept;
/// Absolute tolerance used for branch unknowns carrying a nature's flow.
double flow_abstol(Nature n) noexcept;

}  // namespace usys::spice
