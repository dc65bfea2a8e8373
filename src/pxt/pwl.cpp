#include "pxt/pwl.hpp"

#include <algorithm>
#include <cmath>
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

double Pwl1::slope(double x) const {
  if (x <= x_.front() || x >= x_.back()) return 0.0;  // clamped outside
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  const std::size_t k = static_cast<std::size_t>(it - x_.begin());
  return (y_[k] - y_[k - 1]) / (x_[k] - x_[k - 1]);
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

PwlTransducer::PwlTransducer(std::string name, int a, int b, int c, int d, Pwl1 cap_of_x)
    : Device(std::move(name)), a_(a), b_(b), c_(c), d_(d), cap_(std::move(cap_of_x)) {}

void PwlTransducer::bind(spice::Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
  binder.require_nature(c_, Nature::mechanical_translation, name());
  binder.require_nature(d_, Nature::mechanical_translation, name());
}

void PwlTransducer::start_transient(const DVector& x_dc) {
  const double uc = c_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(c_)];
  const double ud = d_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(d_)];
  xstate_.start(uc - ud);
}

void PwlTransducer::accept(const spice::AcceptCtx& ctx) {
  xstate_.accept(ctx.v(c_) - ctx.v(d_), ctx);
}

void PwlTransducer::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void PwlTransducer::evaluate(spice::EvalCtx& ctx) {
  const double volt = ctx.v(a_) - ctx.v(b_);
  const double u = ctx.v(c_) - ctx.v(d_);
  const double x = xstate_.value(u, ctx);
  const double sl = xstate_.slope(ctx);
  const double cap = cap_(x);
  const double dcap = cap_.slope(x);

  const double qe = cap * volt;
  ctx.q_add(a_, qe);
  ctx.q_add(b_, -qe);
  ctx.jq_add(a_, a_, cap);
  ctx.jq_add(a_, b_, -cap);
  ctx.jq_add(b_, a_, -cap);
  ctx.jq_add(b_, b_, cap);
  const double dq_dx = dcap * volt;
  ctx.jq_add(a_, c_, dq_dx * sl);
  ctx.jq_add(a_, d_, -dq_dx * sl);
  ctx.jq_add(b_, c_, -dq_dx * sl);
  ctx.jq_add(b_, d_, dq_dx * sl);

  // Energy-method force from the table: F_plate = +V^2/2 * dC/dx.
  const double f = 0.5 * volt * volt * dcap;
  const double df_dv = volt * dcap;
  ctx.f_add(c_, -f);
  ctx.f_add(d_, +f);
  ctx.jf_add(c_, a_, -df_dv);
  ctx.jf_add(c_, b_, +df_dv);
  ctx.jf_add(d_, a_, +df_dv);
  ctx.jf_add(d_, b_, -df_dv);
}

Pwl2::Pwl2(std::vector<double> xs, std::vector<double> vs, std::vector<double> values)
    : xs_(std::move(xs)), vs_(std::move(vs)), val_(std::move(values)) {
  if (xs_.size() < 2 || vs_.size() < 2)
    throw std::invalid_argument("Pwl2: need >= 2 points per axis");
  if (val_.size() != xs_.size() * vs_.size())
    throw std::invalid_argument("Pwl2: value grid size mismatch");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    if (xs_[i] <= xs_[i - 1]) throw std::invalid_argument("Pwl2: x axis not increasing");
  }
  for (std::size_t j = 1; j < vs_.size(); ++j) {
    if (vs_[j] <= vs_[j - 1]) throw std::invalid_argument("Pwl2: v axis not increasing");
  }
}

Pwl2::Cell Pwl2::locate(double x, double v) const {
  const double xc = std::clamp(x, xs_.front(), xs_.back());
  const double vc = std::clamp(v, vs_.front(), vs_.back());
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(xs_.begin(), xs_.end() - 1, xc) - xs_.begin());
  std::size_t j = static_cast<std::size_t>(
      std::upper_bound(vs_.begin(), vs_.end() - 1, vc) - vs_.begin());
  i = std::max<std::size_t>(i, 1);
  j = std::max<std::size_t>(j, 1);
  const double wx = (xc - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
  const double wv = (vc - vs_[j - 1]) / (vs_[j] - vs_[j - 1]);
  return {i, j, wx, wv};
}

double Pwl2::operator()(double x, double v) const {
  const Cell c = locate(x, v);
  const double f00 = at(c.i - 1, c.j - 1);
  const double f10 = at(c.i, c.j - 1);
  const double f01 = at(c.i - 1, c.j);
  const double f11 = at(c.i, c.j);
  return (1 - c.wx) * (1 - c.wv) * f00 + c.wx * (1 - c.wv) * f10 +
         (1 - c.wx) * c.wv * f01 + c.wx * c.wv * f11;
}

double Pwl2::d_dx(double x, double v) const {
  if (x <= xs_.front() || x >= xs_.back()) return 0.0;  // clamped
  const Cell c = locate(x, v);
  const double dx = xs_[c.i] - xs_[c.i - 1];
  const double low = (at(c.i, c.j - 1) - at(c.i - 1, c.j - 1)) / dx;
  const double high = (at(c.i, c.j) - at(c.i - 1, c.j)) / dx;
  return (1 - c.wv) * low + c.wv * high;
}

double Pwl2::d_dv(double x, double v) const {
  if (v <= vs_.front() || v >= vs_.back()) return 0.0;
  const Cell c = locate(x, v);
  const double dv = vs_[c.j] - vs_[c.j - 1];
  const double low = (at(c.i - 1, c.j) - at(c.i - 1, c.j - 1)) / dv;
  const double high = (at(c.i, c.j) - at(c.i, c.j - 1)) / dv;
  return (1 - c.wx) * low + c.wx * high;
}

Pwl2 force_model(const ExtractionTable& table) {
  std::vector<double> values;
  values.reserve(table.samples.size());
  for (std::size_t i = 0; i < table.displacements.size(); ++i) {
    for (std::size_t j = 0; j < table.voltages.size(); ++j) {
      values.push_back(table.at(i, j).force_mst);
    }
  }
  return Pwl2(table.displacements, table.voltages, std::move(values));
}

PwlForceTransducer::PwlForceTransducer(std::string name, int a, int b, int c, int d,
                                       Pwl1 cap_of_x, Pwl2 force_of_xv)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      c_(c),
      d_(d),
      cap_(std::move(cap_of_x)),
      force_(std::move(force_of_xv)) {}

void PwlForceTransducer::bind(spice::Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
  binder.require_nature(c_, Nature::mechanical_translation, name());
  binder.require_nature(d_, Nature::mechanical_translation, name());
}

void PwlForceTransducer::start_transient(const DVector& x_dc) {
  const double uc = c_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(c_)];
  const double ud = d_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(d_)];
  xstate_.start(uc - ud);
}

void PwlForceTransducer::accept(const spice::AcceptCtx& ctx) {
  xstate_.accept(ctx.v(c_) - ctx.v(d_), ctx);
}

void PwlForceTransducer::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void PwlForceTransducer::evaluate(spice::EvalCtx& ctx) {
  const double volt = ctx.v(a_) - ctx.v(b_);
  const double u = ctx.v(c_) - ctx.v(d_);
  const double x = xstate_.value(u, ctx);
  const double sl = xstate_.slope(ctx);

  // Electrical port from the C(x) table (same as PwlTransducer).
  const double cap = cap_(x);
  const double dcap = cap_.slope(x);
  const double qe = cap * volt;
  ctx.q_add(a_, qe);
  ctx.q_add(b_, -qe);
  ctx.jq_add(a_, a_, cap);
  ctx.jq_add(a_, b_, -cap);
  ctx.jq_add(b_, a_, -cap);
  ctx.jq_add(b_, b_, cap);
  const double dq_dx = dcap * volt;
  ctx.jq_add(a_, c_, dq_dx * sl);
  ctx.jq_add(a_, d_, -dq_dx * sl);
  ctx.jq_add(b_, c_, -dq_dx * sl);
  ctx.jq_add(b_, d_, dq_dx * sl);

  // Mechanical port from the F(x, V) table. The extracted table holds the
  // force for V >= 0; electrostatic force is even in V, so evaluate at |V|.
  const double va = std::abs(volt);
  const double f = force_(x, va);
  const double sign_v = volt >= 0.0 ? 1.0 : -1.0;
  const double df_dv = force_.d_dv(x, va) * sign_v;
  const double df_dx = force_.d_dx(x, va);
  ctx.f_add(c_, -f);
  ctx.f_add(d_, +f);
  ctx.jf_add(c_, a_, -df_dv);
  ctx.jf_add(c_, b_, +df_dv);
  ctx.jf_add(c_, c_, -df_dx * sl);
  ctx.jf_add(c_, d_, +df_dx * sl);
  ctx.jf_add(d_, a_, +df_dv);
  ctx.jf_add(d_, b_, -df_dv);
  ctx.jf_add(d_, c_, +df_dx * sl);
  ctx.jf_add(d_, d_, -df_dx * sl);
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

double polyval(const std::vector<double>& coeffs, double x) {
  double acc = 0.0;
  for (std::size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
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
