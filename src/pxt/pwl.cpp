#include "pxt/pwl.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/matrix.hpp"
#include "common/strings.hpp"

namespace usys::pxt {

Pwl1::Pwl1(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  if (x_.size() != y_.size() || x_.size() < 2)
    throw std::invalid_argument("Pwl1: need >= 2 matching samples");
  for (std::size_t i = 1; i < x_.size(); ++i) {
    if (x_[i] <= x_[i - 1]) throw std::invalid_argument("Pwl1: x must be increasing");
  }
}

double Pwl1::operator()(double x) const {
  if (x <= x_.front()) return y_.front();
  if (x >= x_.back()) return y_.back();
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  const std::size_t k = static_cast<std::size_t>(it - x_.begin());
  const double w = (x - x_[k - 1]) / (x_[k] - x_[k - 1]);
  return (1.0 - w) * y_[k - 1] + w * y_[k];
}

Pwl1 capacitance_model(const ExtractionTable& table) {
  // C is voltage-independent; take the first voltage column.
  std::vector<double> xs;
  std::vector<double> cs;
  for (std::size_t i = 0; i < table.displacements.size(); ++i) {
    xs.push_back(table.displacements[i]);
    cs.push_back(table.at(i, 0).capacitance);
  }
  return Pwl1(std::move(xs), std::move(cs));
}

std::vector<double> polyfit(const std::vector<double>& x, const std::vector<double>& y,
                            int degree) {
  if (x.size() != y.size() || x.empty())
    throw std::invalid_argument("polyfit: mismatched samples");
  if (degree < 0 || static_cast<std::size_t>(degree) + 1 > x.size())
    throw std::invalid_argument("polyfit: degree too high for sample count");
  const std::size_t m = x.size();
  const std::size_t n = static_cast<std::size_t>(degree) + 1;
  DMatrix a(m, n);
  for (std::size_t r = 0; r < m; ++r) {
    double p = 1.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = p;
      p *= x[r];
    }
  }
  return least_squares(a, y);
}

std::string generate_hdl_model(const ExtractionTable& table, int poly_degree) {
  std::vector<double> xs;
  std::vector<double> cs;
  for (std::size_t i = 0; i < table.displacements.size(); ++i) {
    xs.push_back(table.displacements[i]);
    cs.push_back(table.at(i, 0).capacitance);
  }
  // Fit in a normalized coordinate (x/gap0) for conditioning.
  const double scale = table.setup.gap0;
  std::vector<double> xn(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xn[i] = xs[i] / scale;
  const std::vector<double> c = polyfit(xn, cs, poly_degree);

  // cap(x) = c0 + c1*(x/s) + c2*(x/s)^2 + ...; dcap/dx emitted analytically.
  std::ostringstream cap_expr;
  std::ostringstream dcap_expr;
  cap_expr.precision(12);
  dcap_expr.precision(12);
  for (std::size_t k = 0; k < c.size(); ++k) {
    if (k > 0) cap_expr << " + ";
    cap_expr << std::scientific << c[k];
    for (std::size_t p = 0; p < k; ++p) cap_expr << "*xn";
  }
  bool first = true;
  for (std::size_t k = 1; k < c.size(); ++k) {
    if (!first) dcap_expr << " + ";
    first = false;
    dcap_expr << std::scientific << (static_cast<double>(k) * c[k] / scale);
    for (std::size_t p = 0; p + 1 < k; ++p) dcap_expr << "*xn";
  }
  if (first) dcap_expr << "0.0";

  std::ostringstream os;
  os << "-- generated by usys::pxt from a " << table.displacements.size() << "x"
     << table.voltages.size() << " FE extraction sweep\n"
     << "-- C(x) fitted with a degree-" << poly_degree
     << " polynomial in xn = x/" << str_format("%.6e", scale) << "\n";
  os << "ENTITY pxt_etrans IS\n";
  os << "  GENERIC (xscale : analog := " << str_format("%.12e", scale) << ");\n";
  os << "  PIN (a, b : electrical; c, d : mechanical1);\n";
  os << "END ENTITY pxt_etrans;\n\n";
  os << "ARCHITECTURE pxt OF pxt_etrans IS\n";
  os << "  VARIABLE x, xn, cap, dcap : analog;\n";
  os << "  STATE V, S : analog;\n";
  os << "BEGIN\n  RELATION\n";
  os << "    PROCEDURAL FOR ac, transient =>\n";
  os << "      V := [a, b].v;\n";
  os << "      S := [c, d].tv;\n";
  os << "      x := integ(S);\n";
  os << "      xn := x/xscale;\n";
  os << "      cap := " << cap_expr.str() << ";\n";
  os << "      dcap := " << dcap_expr.str() << ";\n";
  os << "      [a, b].i %= cap*ddt(V) + dcap*S*V;\n";
  os << "      [c, d].f %= -0.5*V*V*dcap;\n";
  os << "  END RELATION;\nEND ARCHITECTURE pxt;\n";
  return os.str();
}

}  // namespace usys::pxt
