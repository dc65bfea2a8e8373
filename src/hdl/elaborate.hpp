// Semantic analysis & elaboration of HDL-AT models.
//
// Elaboration binds generic parameter values, resolves every identifier to a
// frame slot, every pin reference to a pin index, assigns state-site ids to
// ddt()/integ() call sites, and validates field/nature pairings. The result
// is a self-contained ElaboratedModel the interpreter executes without any
// name lookups (the paper's HDL-A compiler performed the same separation:
// parameterized models elaborated per instance).
//
// Contribution semantics ("%="):
//  * `[p,q].i %= e` / `[p,q].f %= e`: adds flow `e` *absorbed* at pin p
//    (leaving the net into the device) and released at q. `.i` requires
//    electrical pins, `.f` mechanical ones.
//  * `[p,q].v %= e`: effort contribution; the pin pair becomes a voltage-
//    defined branch with its own flow unknown (readable via `[p,q].i`).
//
// Port reads:
//  * `[p,q].v`  — across value (any nature; volts on electrical pins)
//  * `[p,q].tv` — across value on mechanical pins (translational velocity)
//  * `[p,q].i` / `[p,q].f` — branch flow; only legal on effort-contributed
//    pairs (a restriction of this implementation, diagnosed at elaboration).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hdl/ast.hpp"
#include "spice/circuit.hpp"

namespace usys::hdl {

/// Elaboration diagnostics are circuit errors: a model that fails semantic
/// analysis can never produce a valid device, so callers that guard device
/// construction with `catch (spice::CircuitError&)` see these too.
class ElabError : public spice::CircuitError {
 public:
  explicit ElabError(const std::string& what) : spice::CircuitError("HDL elaboration: " + what) {}
};

/// A fully resolved, instance-ready model.
struct ElaboratedModel {
  std::string entity_name;
  std::string architecture_name;
  std::vector<PinDecl> pins;

  /// Frame layout: [generics | variables]. Values in `init_frame` hold the
  /// generic bindings and the results of PROCEDURAL FOR init blocks.
  std::vector<std::string> slot_names;
  std::vector<double> init_frame;
  int generic_count = 0;

  /// Generic bindings in declaration order, as bound before the init blocks
  /// ran (an init block may assign a generic slot).
  std::vector<double> generic_values;

  /// Blocks with resolved expressions (init blocks already consumed).
  std::vector<ProceduralBlock> blocks;
  /// The consumed init blocks, kept so a generic can be rebound later.
  std::vector<ProceduralBlock> init_blocks;

  int ddt_site_count = 0;
  int integ_site_count = 0;
  int assert_site_count = 0;  ///< ASSERT statements (ids stored in Stmt::slot)

  /// Pin-index pairs carrying an effort contribution (branch unknowns).
  std::vector<std::pair<int, int>> effort_pairs;

  int pin_index(const std::string& name) const;  ///< -1 if absent
  /// Generic matched case-insensitively (card key "a" finds generic "A");
  /// -1 if absent.
  int generic_index(std::string_view name) const;

  /// Rebinds generic `index` and recomputes `init_frame` exactly as
  /// elaboration computes it: generic bindings, zeroed variables, then the
  /// init blocks in source order.
  void set_generic(int index, double value);
  /// The init_frame computation shared by elaborate() and set_generic().
  void run_init();

  /// Index into effort_pairs matching (p1, p2) in either orientation; -1 if
  /// absent. `forward` (optional) reports whether (p1, p2) matches the
  /// registered orientation — the sign convention every executor shares.
  int effort_pair_index(int p1, int p2, bool* forward = nullptr) const;
};

/// Elaborates `entity` from `unit` with the given generic bindings.
/// Missing generics fall back to declared defaults; unknown or unbound
/// generics throw. `unit` is consumed (statement ASTs are moved out).
ElaboratedModel elaborate(DesignUnit unit, const std::string& entity,
                          const std::map<std::string, double>& generics);

}  // namespace usys::hdl
