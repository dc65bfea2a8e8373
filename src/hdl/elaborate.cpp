#include "hdl/elaborate.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace usys::hdl {

int ElaboratedModel::pin_index(const std::string& name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (iequals(pins[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

int ElaboratedModel::generic_index(std::string_view name) const {
  for (int i = 0; i < generic_count; ++i) {
    if (iequals(slot_names[static_cast<std::size_t>(i)], name)) return i;
  }
  return -1;
}

int ElaboratedModel::effort_pair_index(int p1, int p2, bool* forward) const {
  for (std::size_t k = 0; k < effort_pairs.size(); ++k) {
    const auto& [a, b] = effort_pairs[k];
    if (a == p1 && b == p2) {
      if (forward != nullptr) *forward = true;
      return static_cast<int>(k);
    }
    if (a == p2 && b == p1) {
      if (forward != nullptr) *forward = false;
      return static_cast<int>(k);
    }
  }
  return -1;
}

namespace {

bool is_across_field(const std::string& f) { return f == "v" || f == "tv"; }
bool is_through_field(const std::string& f) { return f == "i" || f == "f"; }

class Elaborator {
 public:
  Elaborator(ElaboratedModel& model) : m_(model) {}

  /// Diagnostic prefix: every resolution error names the entity and line.
  std::string where(int line) const {
    return "entity '" + m_.entity_name + "' line " + std::to_string(line) + ": ";
  }

  int slot_of(const std::string& name, int line) const {
    for (std::size_t i = 0; i < m_.slot_names.size(); ++i) {
      if (iequals(m_.slot_names[i], name)) return static_cast<int>(i);
    }
    throw ElabError(where(line) + "unknown identifier '" + name + "'");
  }

  int pin_of(const std::string& name, int line) const {
    const int idx = m_.pin_index(name);
    if (idx < 0)
      throw ElabError(where(line) + "unknown pin '" + name + "'");
    return idx;
  }

  bool effort_pair(int p1, int p2) const { return m_.effort_pair_index(p1, p2) >= 0; }

  void resolve_expr(ExprNode& e) {
    switch (e.kind) {
      case ExprKind::number:
        return;
      case ExprKind::name:
        e.site_id = slot_of(e.name, e.line);
        return;
      case ExprKind::port_read: {
        const int p1 = pin_of(e.pin1, e.line);
        const int p2 = pin_of(e.pin2, e.line);
        e.args.clear();
        if (is_across_field(e.name)) {
          if (e.name == "tv" &&
              m_.pins[static_cast<std::size_t>(p1)].nature != Nature::mechanical_translation)
            throw ElabError(where(e.line) + "'.tv' read requires mechanical pins");
        } else if (is_through_field(e.name)) {
          if (!effort_pair(p1, p2))
            throw ElabError(where(e.line) + "'." + e.name + "' read on [" + e.pin1 +
                            "," + e.pin2 +
                            "] requires a '.v %=' contribution on that pin pair");
        } else {
          throw ElabError(where(e.line) + "unknown port field '." + e.name + "'");
        }
        // Encode resolved pin indices: reuse site_id as p1*256+p2.
        e.site_id = p1 * 256 + p2;
        return;
      }
      case ExprKind::unary_neg:
        resolve_expr(*e.args[0]);
        return;
      case ExprKind::binary: {
        // Reject unrecognized operators here rather than letting the
        // executors silently evaluate them to 0 (the old fallthrough).
        if (e.name.size() != 1 || std::string("+-*/^").find(e.name[0]) == std::string::npos)
          throw ElabError(where(e.line) + "unknown binary operator '" + e.name + "'");
        resolve_expr(*e.args[0]);
        resolve_expr(*e.args[1]);
        return;
      }
      case ExprKind::call: {
        if (e.name == "ddt") {
          if (e.args.size() != 1)
            throw ElabError(where(e.line) + "ddt takes one argument");
          e.site_id = m_.ddt_site_count++;
        } else if (e.name == "integ") {
          if (e.args.size() != 1)
            throw ElabError(where(e.line) + "integ takes one argument");
          e.site_id = m_.integ_site_count++;
        } else if (e.name == "pow") {
          if (e.args.size() != 2)
            throw ElabError(where(e.line) + "pow takes two arguments");
        } else if (e.name == "sin" || e.name == "cos" || e.name == "tan" ||
                   e.name == "exp" || e.name == "log" || e.name == "sqrt" ||
                   e.name == "abs") {
          if (e.args.size() != 1)
            throw ElabError(where(e.line) + e.name + " takes one argument");
        } else if (e.name == "min" || e.name == "max") {
          if (e.args.size() != 2)
            throw ElabError(where(e.line) + e.name + " takes two arguments");
        } else if (e.name == "limit") {
          if (e.args.size() != 3)
            throw ElabError(where(e.line) + "limit takes three arguments (x, lo, hi)");
        } else {
          throw ElabError(where(e.line) + "unknown function '" + e.name + "'");
        }
        for (auto& a : e.args) resolve_expr(*a);
        return;
      }
    }
  }

  void resolve_stmt(Stmt& s) {
    if (s.kind == StmtKind::assertion) {
      s.slot = m_.assert_site_count++;
      resolve_expr(*s.expr);
      return;
    }
    if (s.kind == StmtKind::assign) {
      s.slot = slot_of(s.target, s.line);
      resolve_expr(*s.expr);
      return;
    }
    const int p1 = pin_of(s.pin1, s.line);
    const int p2 = pin_of(s.pin2, s.line);
    const Nature nat = m_.pins[static_cast<std::size_t>(p1)].nature;
    if (m_.pins[static_cast<std::size_t>(p2)].nature != nat)
      throw ElabError(where(s.line) + "contribution pins must share a nature");
    if (s.field == "i" && nat != Nature::electrical)
      throw ElabError(where(s.line) + "'.i %=' requires electrical pins");
    if (s.field == "f" && nat != Nature::mechanical_translation)
      throw ElabError(where(s.line) + "'.f %=' requires mechanical pins");
    if (s.field == "tv")
      throw ElabError(where(s.line) +
                      "'.tv' is a read field; use '.v %=' for effort contributions");
    // Resolved pin indices for the executors (pin1/pin2 keep the source
    // names for diagnostics).
    s.p1 = p1;
    s.p2 = p2;
    resolve_expr(*s.expr);
  }

 private:
  ElaboratedModel& m_;
};

/// Minimal constant-expression evaluator for init blocks (no ports, no
/// ddt/integ; variables may chain).
double eval_const(const ExprNode& e, const std::vector<double>& frame) {
  switch (e.kind) {
    case ExprKind::number:
      return e.number;
    case ExprKind::name:
      return frame[static_cast<std::size_t>(e.site_id)];
    case ExprKind::unary_neg:
      return -eval_const(*e.args[0], frame);
    case ExprKind::binary: {
      const double a = eval_const(*e.args[0], frame);
      const double b = eval_const(*e.args[1], frame);
      switch (e.name[0]) {
        case '+': return a + b;
        case '-': return a - b;
        case '*': return a * b;
        case '/': return a / b;
        case '^': return std::pow(a, b);
        default: break;
      }
      throw ElabError("bad binary op in init block");
    }
    case ExprKind::call: {
      if (e.name == "pow")
        return std::pow(eval_const(*e.args[0], frame), eval_const(*e.args[1], frame));
      if (e.name == "min")
        return std::min(eval_const(*e.args[0], frame), eval_const(*e.args[1], frame));
      if (e.name == "max")
        return std::max(eval_const(*e.args[0], frame), eval_const(*e.args[1], frame));
      if (e.name == "limit") {
        const double x = eval_const(*e.args[0], frame);
        const double lo = eval_const(*e.args[1], frame);
        const double hi = eval_const(*e.args[2], frame);
        return std::clamp(x, lo, hi);
      }
      const double a = eval_const(*e.args[0], frame);
      if (e.name == "sin") return std::sin(a);
      if (e.name == "cos") return std::cos(a);
      if (e.name == "tan") return std::tan(a);
      if (e.name == "exp") return std::exp(a);
      if (e.name == "log") return std::log(a);
      if (e.name == "sqrt") return std::sqrt(a);
      if (e.name == "abs") return std::abs(a);
      throw ElabError("function '" + e.name + "' not allowed in init block");
    }
    case ExprKind::port_read:
      throw ElabError("port reads not allowed in init block");
  }
  throw ElabError("unreachable init expression kind");
}

}  // namespace

void ElaboratedModel::set_generic(int index, double value) {
  generic_values.at(static_cast<std::size_t>(index)) = value;
  run_init();
}

void ElaboratedModel::run_init() {
  std::copy(generic_values.begin(), generic_values.end(), init_frame.begin());
  std::fill(init_frame.begin() + generic_count, init_frame.end(), 0.0);
  for (const auto& b : init_blocks) {
    for (const auto& s : b.stmts)
      init_frame[static_cast<std::size_t>(s.slot)] = eval_const(*s.expr, init_frame);
  }
}

ElaboratedModel elaborate(DesignUnit unit, const std::string& entity,
                          const std::map<std::string, double>& generics) {
  const Entity* ent = unit.find_entity(entity);
  if (ent == nullptr) throw ElabError("no entity named '" + entity + "'");
  const Architecture* arch_c = unit.find_architecture_of(entity);
  if (arch_c == nullptr) throw ElabError("no architecture for entity '" + entity + "'");

  ElaboratedModel m;
  m.entity_name = ent->name;
  m.architecture_name = arch_c->name;
  m.pins = ent->pins;
  if (m.pins.size() < 2) throw ElabError("entity '" + entity + "' needs at least two pins");

  // Frame layout: generics first, then architecture variables.
  for (const auto& g : ent->generics) {
    m.slot_names.push_back(g.name);
    double value = 0.0;
    bool bound = false;
    for (const auto& [k, v] : generics) {
      if (iequals(k, g.name)) {
        value = v;
        bound = true;
        break;
      }
    }
    if (!bound) {
      if (!g.has_default)
        throw ElabError("generic '" + g.name + "' of '" + entity +
                        "' has no binding and no default");
      value = g.default_value;
    }
    m.generic_values.push_back(value);
  }
  m.init_frame = m.generic_values;
  m.generic_count = static_cast<int>(ent->generics.size());
  for (const auto& v : arch_c->variables) {
    for (const auto& existing : m.slot_names) {
      if (iequals(existing, v.name))
        throw ElabError("variable '" + v.name + "' shadows a generic");
    }
    m.slot_names.push_back(v.name);
    m.init_frame.push_back(0.0);
  }

  // Move the architecture out of the unit so we own the statement ASTs.
  Architecture arch;
  for (auto& a : unit.architectures) {
    if (iequals(a.entity, entity)) {
      arch = std::move(a);
      break;
    }
  }

  // Pre-scan: effort pairs come from '.v %=' contributions (needed before
  // '.i' reads can be validated).
  Elaborator el(m);
  for (const auto& b : arch.blocks) {
    for (const auto& s : b.stmts) {
      if (s.kind == StmtKind::contribution && s.field == "v") {
        const int p1 = m.pin_index(s.pin1);
        const int p2 = m.pin_index(s.pin2);
        if (p1 < 0 || p2 < 0)
          throw ElabError("line " + std::to_string(s.line) + ": unknown pin in contribution");
        if (!el.effort_pair(p1, p2)) m.effort_pairs.emplace_back(p1, p2);
      }
    }
  }

  // Resolve all blocks, then execute the init blocks into the frame.
  for (auto& b : arch.blocks) {
    for (auto& s : b.stmts) el.resolve_stmt(s);
    if (b.has_domain("init")) {
      for (const auto& s : b.stmts) {
        if (s.kind != StmtKind::assign)
          throw ElabError("line " + std::to_string(s.line) +
                          ": only assignments allowed in init blocks");
      }
      m.init_blocks.push_back(std::move(b));  // consumed here, kept for rebinds
      continue;
    }
    m.blocks.push_back(std::move(b));
  }
  m.run_init();
  return m;
}

}  // namespace usys::hdl
