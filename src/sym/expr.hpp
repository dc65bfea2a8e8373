// Immutable symbolic expression trees.
//
// The paper derives each transducer's port efforts by differentiating the
// internal energy W with respect to the port state variables (steps 1-4 of
// the "Deriving HDL-A behavioral models from transducer internal energy"
// section). This module provides exactly the machinery that recipe needs:
// build W as an expression, differentiate, simplify, then either evaluate
// numerically, generate C++-callable closures, or emit HDL-AT source text.
//
// Expressions are immutable DAGs behind shared_ptr; all operations return
// new expressions. Value semantics at the handle level (Expr is cheap to
// copy), structural sharing underneath.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace usys::sym {

enum class Kind {
  constant,  ///< numeric literal
  variable,  ///< named free variable
  add,
  sub,
  mul,
  div,
  neg,
  pow,   ///< args[0] ^ args[1]
  sin,
  cos,
  tan,
  exp,
  log,
  sqrt,
  abs,
};

class Expr;
struct Node;
using NodePtr = std::shared_ptr<const Node>;

/// One node of the expression DAG. Constant nodes use `value`, variable
/// nodes use `name`, everything else uses `args`.
struct Node {
  Kind kind;
  double value = 0.0;
  std::string name;
  std::vector<Expr> args;
};

/// Handle to an immutable expression. Default-constructed handle is the
/// constant 0 so containers of Expr behave sanely.
class Expr {
 public:
  Expr();                       ///< constant 0
  Expr(double v);               ///< implicit: numeric literal  NOLINT
  Expr(int v) : Expr(static_cast<double>(v)) {}  ///< NOLINT

  static Expr constant(double v);
  static Expr variable(std::string name);
  static Expr make(Kind kind, std::vector<Expr> args);

  Kind kind() const noexcept;
  /// Value of a constant node; throws std::logic_error otherwise.
  double value() const;
  /// Name of a variable node; throws std::logic_error otherwise.
  const std::string& name() const;
  const std::vector<Expr>& args() const noexcept;

  bool is_constant() const noexcept { return kind() == Kind::constant; }
  bool is_constant(double v) const noexcept;
  bool is_variable() const noexcept { return kind() == Kind::variable; }

  /// Structural equality (same shape, same constants, same names).
  bool equals(const Expr& other) const noexcept;

  /// All distinct variable names in deterministic (sorted) order.
  std::vector<std::string> variables() const;

  /// True if `var` occurs in the expression.
  bool depends_on(const std::string& var) const noexcept;

  /// Node identity (for memoized traversals).
  const Node* raw() const noexcept { return node_.get(); }

 private:
  explicit Expr(NodePtr node) : node_(std::move(node)) {}
  NodePtr node_;
  friend Expr make_node(Kind, double, std::string, std::vector<Expr>);
};

// -- Construction helpers ----------------------------------------------------

Expr operator+(const Expr& a, const Expr& b);
Expr operator-(const Expr& a, const Expr& b);
Expr operator*(const Expr& a, const Expr& b);
Expr operator/(const Expr& a, const Expr& b);
Expr operator-(const Expr& a);

Expr pow(const Expr& base, const Expr& exponent);
Expr sin(const Expr& x);
Expr cos(const Expr& x);
Expr tan(const Expr& x);
Expr exp(const Expr& x);
Expr log(const Expr& x);
Expr sqrt(const Expr& x);
Expr abs(const Expr& x);

/// Shorthand for Expr::variable.
Expr var(std::string name);

// -- Core operations (implemented in eval/diff/simplify/printer .cpp) --------

/// Environment mapping variable names to values.
using Env = std::map<std::string, double>;

/// Numeric evaluation; throws std::out_of_range if a variable is unbound,
/// std::domain_error on log/sqrt of negative operands.
double eval(const Expr& e, const Env& env);

/// Partial derivative d e / d var (symbolic; not simplified beyond local
/// folding — call simplify() on the result for readable output).
Expr diff(const Expr& e, const std::string& var);

/// Algebraic simplification: constant folding, identity elimination
/// (x+0, x*1, x*0, x^1, x/1, --x), flattening of nested negation, and
/// constant collection in products. Idempotent.
Expr simplify(const Expr& e);

/// Substitutes `replacement` for every occurrence of variable `var`.
Expr substitute(const Expr& e, const std::string& var, const Expr& replacement);

/// Human-readable infix text, fully parenthesized only where needed.
std::string to_text(const Expr& e);

/// HDL-AT expression syntax (same infix as to_text but with `**`-free pow
/// rendered as repeated multiplication for integer exponents, matching the
/// paper's Listing 1 style).
std::string to_hdl(const Expr& e);

/// Number of nodes (for complexity assertions in tests/benches).
std::size_t node_count(const Expr& e);

}  // namespace usys::sym
