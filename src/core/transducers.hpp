// Non-linear lumped-parameter behavioral transducer devices (Fig. 2 a-d).
//
// These are the native-C++ equivalents of the paper's HDL-A models: each is
// a conservative two-port between the electrical and mechanical translation
// domains, valid for large signals. The displacement state is carried
// internally as x = integ(v_c - v_d), mirroring `x := integ(S)` in the
// paper's Listing 1; consequently the DC operating point pins x at its
// initial value (exactly the HDL-A semantics — see DESIGN.md).
//
// Sign conventions (validated by the energy-conservation property tests):
//  * pin c is the *free plate / armature / coil* mechanical terminal, pin d
//    the reference frame it reacts against (usually ground);
//  * x = integral of (v_c - v_d): positive x opens the gap of (a)/(c) and
//    reduces the overlap of (b);
//  * the device delivers the Table 3 force (negative = attraction) into
//    pin c and the opposite reaction into pin d.
//
// Electrode collision: the gap-closing devices clamp the effective gap at
// `gap_floor` (default d/1000) and log one warning — a crude but robust
// contact model that keeps Newton finite through pull-in experiments.
#pragma once

#include "core/reference.hpp"
#include "spice/circuit.hpp"

namespace usys::core {

using spice::AcceptCtx;
using spice::Binder;
using spice::Device;
using spice::EvalCtx;
using spice::InternalState;

/// Common machinery of the four transducers: pins, the displacement state.
class TransducerBase : public Device {
 public:
  TransducerBase(std::string name, int a, int b, int c, int d, TransducerGeometry geom);

  void bind(Binder& binder) override;
  void start_transient(const DVector& x_dc) override;
  void accept(const AcceptCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

  /// Initial plate displacement (default 0 = rest position).
  void set_initial_displacement(double x0) noexcept { xstate_.set_initial(x0); }

  /// Committed displacement after the last accepted step (for probing).
  double displacement() const noexcept { return xstate_.committed(); }

  const TransducerGeometry& geometry() const noexcept { return geom_; }

 protected:
  /// Relative plate velocity v_c - v_d at the current iterate.
  double velocity(const EvalCtx& ctx) const { return ctx.v(c_) - ctx.v(d_); }
  /// Current displacement under the step's integration formula.
  double disp(const EvalCtx& ctx) const { return xstate_.value(velocity(ctx), ctx); }
  /// d(displacement)/d(velocity unknown) for the chain rule.
  double disp_slope(const EvalCtx& ctx) const { return xstate_.slope(ctx); }

  /// Adds a force `f_plate` delivered into pin c (reaction into pin d),
  /// with partial derivatives given w.r.t. voltage-like and x-like scalars.
  /// dfdx is mapped through the integrator slope onto the velocity columns.
  void stamp_mech_force(EvalCtx& ctx, double f_plate, double df_dva, double df_dvb,
                        double df_dx, double df_dbr, int br) const;

  int a_, b_, c_, d_;  // pins: (a,b) electrical, (c,d) mechanical
  TransducerGeometry geom_;
  InternalState xstate_;
  mutable bool collision_warned_ = false;
};

/// (a) Transverse electrostatic (gap-closing plate), Listing 1 of the paper.
///   C(x) = eps*A/(d+x);  i = d(C(x) V)/dt;  F_plate = -eps*A*V^2/(2 (d+x)^2).
class TransverseElectrostatic final : public TransducerBase {
 public:
  using TransducerBase::TransducerBase;
  void evaluate(EvalCtx& ctx) override;

  /// Effective (collision-clamped) gap at displacement x.
  double effective_gap(double x) const;
};

/// (b) Parallel (sliding-plate) electrostatic:
///   C(x) = eps*h*(l-x)/d;  F_plate = -eps*h*V^2/(2 d)  (x-independent).
class ParallelElectrostatic final : public TransducerBase {
 public:
  using TransducerBase::TransducerBase;
  void evaluate(EvalCtx& ctx) override;

  /// Effective overlap (clamped at a small positive floor).
  double effective_overlap(double x) const;
};

/// (c) Electromagnetic (variable reluctance):
///   L(x) = mu0*A*N^2/(2 (d+x));  v = d(L(x) i)/dt;
///   F_armature = -mu0*A*N^2*i^2/(4 (d+x)^2).
/// Carries a branch unknown (the coil current).
class ElectromagneticTransducer final : public TransducerBase {
 public:
  using TransducerBase::TransducerBase;
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

  int branch() const noexcept { return br_; }
  double effective_gap(double x) const;

 private:
  int br_ = -1;
};

/// (d) Electrodynamic (voice coil in a radial field B):
///   v = L di/dt + T u;  F_coil = T i;  T = 2 pi N r B;  L = mu0 N^2 r / 2.
/// The coupling is a gyrator — linear and conservative for constant B.
class ElectrodynamicTransducer final : public TransducerBase {
 public:
  using TransducerBase::TransducerBase;
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

  int branch() const noexcept { return br_; }

 private:
  int br_ = -1;
};

}  // namespace usys::core
