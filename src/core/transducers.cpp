#include "core/transducers.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace usys::core {
namespace {

/// Fraction of the rest dimension used as the collision floor.
constexpr double kGapFloorFraction = 1e-3;

}  // namespace

TransducerBase::TransducerBase(std::string name, int a, int b, int c, int d,
                               TransducerGeometry geom)
    : Device(std::move(name)), a_(a), b_(b), c_(c), d_(d), geom_(geom) {}

void TransducerBase::bind(Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
  binder.require_nature(c_, Nature::mechanical_translation, name());
  binder.require_nature(d_, Nature::mechanical_translation, name());
}

void TransducerBase::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void TransducerBase::start_transient(const DVector& x_dc) {
  const double uc = c_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(c_)];
  const double ud = d_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(d_)];
  xstate_.start(uc - ud);
}

void TransducerBase::accept(const AcceptCtx& ctx) {
  xstate_.accept(ctx.v(c_) - ctx.v(d_), ctx);
}

void TransducerBase::stamp_mech_force(EvalCtx& ctx, double f_plate, double df_dva,
                                      double df_dvb, double df_dx, double df_dbr,
                                      int br) const {
  const double sl = disp_slope(ctx);
  // Deliver f_plate into pin c: the *absorbed* flow at c is -f_plate.
  ctx.f_add(c_, -f_plate);
  ctx.f_add(d_, +f_plate);
  // d(absorbed flow at c)/d(unknowns); row d is the negation.
  const double dc_a = -df_dva;
  const double dc_b = -df_dvb;
  const double dc_c = -df_dx * sl;   // x = integ(v_c - v_d): dx/dv_c = +sl
  const double dc_d = +df_dx * sl;   //                       dx/dv_d = -sl
  ctx.jf_add(c_, a_, dc_a);
  ctx.jf_add(c_, b_, dc_b);
  ctx.jf_add(c_, c_, dc_c);
  ctx.jf_add(c_, d_, dc_d);
  ctx.jf_add(d_, a_, -dc_a);
  ctx.jf_add(d_, b_, -dc_b);
  ctx.jf_add(d_, c_, -dc_c);
  ctx.jf_add(d_, d_, -dc_d);
  if (br >= 0 && df_dbr != 0.0) {
    ctx.jf_add(c_, br, -df_dbr);
    ctx.jf_add(d_, br, +df_dbr);
  }
}

// ---------------------------------------------------------------------------
// (a) transverse electrostatic
// ---------------------------------------------------------------------------

void TransverseElectrostatic::evaluate(EvalCtx& ctx) {
  const double volt = ctx.v(a_) - ctx.v(b_);
  const double x = disp(ctx);
  const double sl = disp_slope(ctx);

  double gap = geom_.gap + x;
  double dgap_dx = 1.0;
  if (gap < kGapFloorFraction * geom_.gap) {
    gap = kGapFloorFraction * geom_.gap;
    dgap_dx = 0.0;
    if (!collision_warned_) {
      log_warn("transducer '" + name() + "': electrode collision (gap clamped)");
      collision_warned_ = true;
    }
  }

  const double ea = geom_.eps0 * geom_.eps_r * geom_.area;
  const double cap = ea / gap;
  const double dcap_dx = -ea / (gap * gap) * dgap_dx;

  // Electrical port: i = d(C(x) V)/dt.
  const double qe = cap * volt;
  ctx.q_add(a_, qe);
  ctx.q_add(b_, -qe);
  ctx.jq_add(a_, a_, cap);
  ctx.jq_add(a_, b_, -cap);
  ctx.jq_add(b_, a_, -cap);
  ctx.jq_add(b_, b_, cap);
  const double dq_dx = dcap_dx * volt;
  ctx.jq_add(a_, c_, dq_dx * sl);
  ctx.jq_add(a_, d_, -dq_dx * sl);
  ctx.jq_add(b_, c_, -dq_dx * sl);
  ctx.jq_add(b_, d_, dq_dx * sl);

  // Mechanical port: attraction on the free plate (Table 3 row a).
  const double f = -ea * volt * volt / (2.0 * gap * gap);
  const double df_dv = -ea * volt / (gap * gap);
  const double df_dx = ea * volt * volt / (gap * gap * gap) * dgap_dx;
  stamp_mech_force(ctx, f, df_dv, -df_dv, df_dx, 0.0, -1);
}

// ---------------------------------------------------------------------------
// (b) parallel electrostatic
// ---------------------------------------------------------------------------

void ParallelElectrostatic::evaluate(EvalCtx& ctx) {
  const double volt = ctx.v(a_) - ctx.v(b_);
  const double x = disp(ctx);
  const double sl = disp_slope(ctx);

  double overlap = geom_.length - x;
  double dov_dx = -1.0;
  if (overlap < kGapFloorFraction * geom_.length) {
    overlap = kGapFloorFraction * geom_.length;
    dov_dx = 0.0;
    if (!collision_warned_) {
      log_warn("transducer '" + name() + "': plates fully withdrawn (overlap clamped)");
      collision_warned_ = true;
    }
  }

  const double eh = geom_.eps0 * geom_.eps_r * geom_.depth;
  const double cap = eh * overlap / geom_.gap;
  const double dcap_dx = eh * dov_dx / geom_.gap;

  const double qe = cap * volt;
  ctx.q_add(a_, qe);
  ctx.q_add(b_, -qe);
  ctx.jq_add(a_, a_, cap);
  ctx.jq_add(a_, b_, -cap);
  ctx.jq_add(b_, a_, -cap);
  ctx.jq_add(b_, b_, cap);
  const double dq_dx = dcap_dx * volt;
  ctx.jq_add(a_, c_, dq_dx * sl);
  ctx.jq_add(a_, d_, -dq_dx * sl);
  ctx.jq_add(b_, c_, -dq_dx * sl);
  ctx.jq_add(b_, d_, dq_dx * sl);

  // F = (V^2/2) dC/dx: constant while the plates overlap, zero once
  // withdrawn (dov_dx = 0 encodes both regimes).
  const double f = 0.5 * volt * volt * dcap_dx;
  const double df_dv = volt * dcap_dx;
  stamp_mech_force(ctx, f, df_dv, -df_dv, 0.0, 0.0, -1);
}

// ---------------------------------------------------------------------------
// (c) electromagnetic (variable reluctance)
// ---------------------------------------------------------------------------

void ElectromagneticTransducer::bind(Binder& binder) {
  TransducerBase::bind(binder);
  br_ = binder.alloc_branch(Nature::electrical);
}

void ElectromagneticTransducer::stamp_footprint(std::vector<int>& out) const {
  TransducerBase::stamp_footprint(out);
  out.push_back(br_);
}

void ElectromagneticTransducer::evaluate(EvalCtx& ctx) {
  const double i = ctx.v(br_);
  const double x = disp(ctx);
  const double sl = disp_slope(ctx);

  double gap = geom_.gap + x;
  double dgap_dx = 1.0;
  if (gap < kGapFloorFraction * geom_.gap) {
    gap = kGapFloorFraction * geom_.gap;
    dgap_dx = 0.0;
    if (!collision_warned_) {
      log_warn("transducer '" + name() + "': armature collision (gap clamped)");
      collision_warned_ = true;
    }
  }

  const double n = static_cast<double>(geom_.turns);
  const double man2 = geom_.mu0 * geom_.area * n * n;
  const double ind = man2 / (2.0 * gap);
  const double dind_dx = -man2 / (2.0 * gap * gap) * dgap_dx;

  // KCL: coil current flows a -> b.
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);

  // Branch: d(L(x) i)/dt - (va - vb) = 0  (Table 3 row c, voltage).
  ctx.f_add(br_, -(ctx.v(a_) - ctx.v(b_)));
  ctx.jf_add(br_, a_, -1.0);
  ctx.jf_add(br_, b_, 1.0);
  ctx.q_add(br_, ind * i);
  ctx.jq_add(br_, br_, ind);
  ctx.jq_add(br_, c_, i * dind_dx * sl);
  ctx.jq_add(br_, d_, -i * dind_dx * sl);

  // Reluctance force pulls the armature in (Table 3 row c, force).
  const double f = -man2 * i * i / (4.0 * gap * gap);
  const double df_di = -man2 * i / (2.0 * gap * gap);
  const double df_dx = man2 * i * i / (2.0 * gap * gap * gap) * dgap_dx;
  stamp_mech_force(ctx, f, 0.0, 0.0, df_dx, df_di, br_);
}

// ---------------------------------------------------------------------------
// (d) electrodynamic (voice coil)
// ---------------------------------------------------------------------------

void ElectrodynamicTransducer::bind(Binder& binder) {
  TransducerBase::bind(binder);
  br_ = binder.alloc_branch(Nature::electrical);
}

void ElectrodynamicTransducer::stamp_footprint(std::vector<int>& out) const {
  TransducerBase::stamp_footprint(out);
  out.push_back(br_);
}

void ElectrodynamicTransducer::evaluate(EvalCtx& ctx) {
  const double i = ctx.v(br_);
  const double u = velocity(ctx);
  const double t_fac = transduction_electrodynamic(geom_);
  const double ind = inductance_electrodynamic(geom_);

  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);

  // Branch: L di/dt + T u - (va - vb) = 0 (back-EMF + self-inductance).
  ctx.f_add(br_, t_fac * u - (ctx.v(a_) - ctx.v(b_)));
  ctx.jf_add(br_, a_, -1.0);
  ctx.jf_add(br_, b_, 1.0);
  ctx.jf_add(br_, c_, t_fac);
  ctx.jf_add(br_, d_, -t_fac);
  ctx.q_add(br_, ind * i);
  ctx.jq_add(br_, br_, ind);

  // Lorentz force on the coil: F = T i (Table 3 row d).
  stamp_mech_force(ctx, t_fac * i, 0.0, 0.0, 0.0, t_fac, br_);
}

}  // namespace usys::core
