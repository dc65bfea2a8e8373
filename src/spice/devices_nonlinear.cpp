#include "spice/devices_nonlinear.hpp"

#include <cmath>
#include <stdexcept>

namespace usys::spice {

JouleHeater::JouleHeater(std::string name, int a, int b, int thermal, double r0,
                         double temp_coeff, double t_ref)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      t_(thermal),
      r0_(r0),
      tc_(temp_coeff),
      tref_(t_ref) {
  if (r0_ <= 0.0)
    throw std::invalid_argument("JouleHeater '" + this->name() + "': r0 must be > 0");
}

void JouleHeater::bind(Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
  binder.require_nature(t_, Nature::thermal, name());
}

void JouleHeater::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, t_});
}

void JouleHeater::evaluate(EvalCtx& ctx) {
  const double v = ctx.v(a_) - ctx.v(b_);
  const double temp = ctx.v(t_);
  // Resistance floor guards against runaway negative-tc operating points.
  double r = r0_ * (1.0 + tc_ * (temp - tref_));
  double dr_dt = r0_ * tc_;
  if (r < 0.01 * r0_) {
    r = 0.01 * r0_;
    dr_dt = 0.0;
  }
  const double g = 1.0 / r;
  const double i = v * g;

  // Electrical port.
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, a_, g);
  ctx.jf_add(a_, b_, -g);
  ctx.jf_add(b_, a_, -g);
  ctx.jf_add(b_, b_, g);
  const double di_dt = -v * dr_dt / (r * r);
  ctx.jf_add(a_, t_, di_dt);
  ctx.jf_add(b_, t_, -di_dt);

  // Thermal port: Joule power delivered INTO the thermal node (absorbed
  // flow at t is -P).
  const double p = v * i;
  ctx.f_add(t_, -p);
  const double dp_dv = 2.0 * v * g;
  ctx.jf_add(t_, a_, -dp_dv);
  ctx.jf_add(t_, b_, dp_dv);
  ctx.jf_add(t_, t_, v * v * dr_dt / (r * r));
}

Diode::Diode(std::string name, int a, int b, double i_sat, double emission,
             double v_thermal)
    : Device(std::move(name)), a_(a), b_(b), is_(i_sat), n_(emission), vt_(v_thermal) {
  if (is_ <= 0.0 || n_ <= 0.0 || vt_ <= 0.0)
    throw std::invalid_argument("Diode '" + this->name() + "': parameters must be > 0");
  // Continue the exponential linearly once exp() would exceed ~1e12 * Is.
  v_crit_ = n_ * vt_ * std::log(1e12);
}

void Diode::bind(Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
}

void Diode::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_});
}

void Diode::evaluate(EvalCtx& ctx) {
  const double vd = ctx.v(a_) - ctx.v(b_);
  double i = 0.0;
  double g = 0.0;
  const double nvt = n_ * vt_;
  if (vd <= v_crit_) {
    const double e = std::exp(vd / nvt);
    i = is_ * (e - 1.0);
    g = is_ * e / nvt;
  } else {
    // Linear continuation with matching value and slope at v_crit.
    const double e = std::exp(v_crit_ / nvt);
    const double i0 = is_ * (e - 1.0);
    const double g0 = is_ * e / nvt;
    i = i0 + g0 * (vd - v_crit_);
    g = g0;
  }
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, a_, g);
  ctx.jf_add(a_, b_, -g);
  ctx.jf_add(b_, a_, -g);
  ctx.jf_add(b_, b_, g);
}

}  // namespace usys::spice
