#include "core/linearized.hpp"

namespace usys::core {

LinearizedCoefficients linearize_transverse(const ResonatorParams& params,
                                            const LinearizationOptions& opts) {
  LinearizedCoefficients out;
  out.x0 = static_displacement_transverse(params, params.v_bias);
  out.f0 = force_transverse(params.geom, params.v_bias, out.x0);
  out.c0 = capacitance_transverse(params.geom, out.x0);
  out.gamma = (opts.gamma == GammaKind::tangent) ? gamma_tangent(params)
                                                 : gamma_secant(params);
  if (opts.include_spring_softening) {
    // k_e = dF/dx at the bias: F = -eps A V^2 / (2 (d+x)^2)
    //  =>  dF/dx = +eps A V0^2 / (d+x0)^3  (destabilizing).
    const double gap = params.geom.gap + out.x0;
    out.k_soft = params.geom.eps0 * params.geom.eps_r * params.geom.area *
                 params.v_bias * params.v_bias / (gap * gap * gap);
  }
  return out;
}

LinearizedTransverseElectrostatic::LinearizedTransverseElectrostatic(
    std::string name, int a, int b, int c, int d, LinearizedCoefficients coeffs)
    : Device(std::move(name)), a_(a), b_(b), c_(c), d_(d), k_(coeffs) {}

void LinearizedTransverseElectrostatic::bind(spice::Binder& binder) {
  binder.require_nature(a_, Nature::electrical, name());
  binder.require_nature(b_, Nature::electrical, name());
  binder.require_nature(c_, Nature::mechanical_translation, name());
  binder.require_nature(d_, Nature::mechanical_translation, name());
}

void LinearizedTransverseElectrostatic::start_transient(const DVector& x_dc) {
  const double uc = c_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(c_)];
  const double ud = d_ < 0 ? 0.0 : x_dc[static_cast<std::size_t>(d_)];
  xstate_.start(uc - ud);
}

void LinearizedTransverseElectrostatic::accept(const spice::AcceptCtx& ctx) {
  xstate_.accept(ctx.v(c_) - ctx.v(d_), ctx);
}

void LinearizedTransverseElectrostatic::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void LinearizedTransverseElectrostatic::evaluate(spice::EvalCtx& ctx) {
  const double volt = ctx.v(a_) - ctx.v(b_);
  const double u = ctx.v(c_) - ctx.v(d_);

  // Electrical port: bias capacitor + motional current Gamma*u.
  const double qe = k_.c0 * volt;
  ctx.q_add(a_, qe);
  ctx.q_add(b_, -qe);
  ctx.jq_add(a_, a_, k_.c0);
  ctx.jq_add(a_, b_, -k_.c0);
  ctx.jq_add(b_, a_, -k_.c0);
  ctx.jq_add(b_, b_, k_.c0);
  // Motional current: the linearization of i = d(C(x)V)/dt contributes
  // C'(x0) V0 u = -Gamma u (C' < 0 for the gap-closing plate); the minus
  // sign makes the coupling power-conserving together with the force below.
  const double im = -k_.gamma * u;
  ctx.f_add(a_, im);
  ctx.f_add(b_, -im);
  ctx.jf_add(a_, c_, -k_.gamma);
  ctx.jf_add(a_, d_, k_.gamma);
  ctx.jf_add(b_, c_, k_.gamma);
  ctx.jf_add(b_, d_, -k_.gamma);

  // Mechanical port: attraction -Gamma*V delivered into the free plate,
  // plus the optional electrostatic softening spring.
  const double x = xstate_.value(u, ctx);
  const double sl = xstate_.slope(ctx);
  const double f_plate = -k_.gamma * volt + k_.k_soft * x;
  ctx.f_add(c_, -f_plate);
  ctx.f_add(d_, +f_plate);
  ctx.jf_add(c_, a_, k_.gamma);
  ctx.jf_add(c_, b_, -k_.gamma);
  ctx.jf_add(d_, a_, -k_.gamma);
  ctx.jf_add(d_, b_, k_.gamma);
  if (k_.k_soft != 0.0) {
    ctx.jf_add(c_, c_, -k_.k_soft * sl);
    ctx.jf_add(c_, d_, k_.k_soft * sl);
    ctx.jf_add(d_, c_, k_.k_soft * sl);
    ctx.jf_add(d_, d_, -k_.k_soft * sl);
  }
}

}  // namespace usys::core
