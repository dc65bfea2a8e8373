#include <cmath>

#include "common/strings.hpp"
#include "sym/expr.hpp"

namespace usys::sym {
namespace {

// Precedence levels for minimal parenthesization.
int precedence(Kind k) {
  switch (k) {
    case Kind::add:
    case Kind::sub:
      return 1;
    case Kind::mul:
    case Kind::div:
      return 2;
    case Kind::neg:
      return 3;
    case Kind::pow:
      return 4;
    default:
      return 5;  // atoms and function calls never need parens
  }
}

std::string fmt_const(double v) {
  if (v == static_cast<long long>(v) && std::abs(v) < 1e15) {
    return str_format("%.1f", v);
  }
  return str_format("%g", v);
}

std::string render(const Expr& e, bool hdl);

std::string child(const Expr& c, int parent_prec, bool hdl, bool right_assoc_side = false) {
  const int cp = precedence(c.kind());
  std::string s = render(c, hdl);
  if (cp < parent_prec || (cp == parent_prec && right_assoc_side)) {
    return "(" + s + ")";
  }
  return s;
}

std::string fn(const char* name, const Expr& e, bool hdl) {
  return std::string(name) + "(" + render(e.args()[0], hdl) + ")";
}

std::string render(const Expr& e, bool hdl) {
  switch (e.kind()) {
    case Kind::constant:
      return fmt_const(e.value());
    case Kind::variable:
      return e.name();
    case Kind::add:
      return child(e.args()[0], 1, hdl) + " + " + child(e.args()[1], 1, hdl);
    case Kind::sub:
      return child(e.args()[0], 1, hdl) + " - " + child(e.args()[1], 1, hdl, true);
    case Kind::mul:
      return child(e.args()[0], 2, hdl) + "*" + child(e.args()[1], 2, hdl);
    case Kind::div:
      return child(e.args()[0], 2, hdl) + "/" + child(e.args()[1], 2, hdl, true);
    case Kind::neg: {
      // insert() instead of "-" + s: char-literal concatenation here trips a
      // GCC 12 libstdc++ -Wrestrict false positive (PR105651) under -O2.
      std::string s = child(e.args()[0], 3, hdl);
      s.insert(s.begin(), '-');
      return s;
    }
    case Kind::pow: {
      const Expr& base = e.args()[0];
      const Expr& expo = e.args()[1];
      if (hdl && expo.is_constant()) {
        // HDL-AT has no ** operator (the paper writes (d+x)*(d+x)); expand
        // small integer powers into products.
        const double ev = expo.value();
        const int n = static_cast<int>(ev);
        if (ev == n && n >= 2 && n <= 4) {
          std::string b = child(base, 2, hdl);
          std::string out = b;
          for (int i = 1; i < n; ++i) out += "*" + b;
          return out;
        }
      }
      return child(base, 4, hdl, true) + "^" + child(expo, 4, hdl);
    }
    case Kind::sin: return fn("sin", e, hdl);
    case Kind::cos: return fn("cos", e, hdl);
    case Kind::tan: return fn("tan", e, hdl);
    case Kind::exp: return fn("exp", e, hdl);
    case Kind::log: return fn("log", e, hdl);
    case Kind::sqrt: return fn("sqrt", e, hdl);
    case Kind::abs: return fn("abs", e, hdl);
  }
  throw std::logic_error("sym printer: unreachable kind");
}

}  // namespace

std::string to_text(const Expr& e) { return render(e, /*hdl=*/false); }
std::string to_hdl(const Expr& e) { return render(e, /*hdl=*/true); }

}  // namespace usys::sym
