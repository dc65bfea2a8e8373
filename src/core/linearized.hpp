// Linearized equivalent-circuit transducer models (the paper's baseline).
//
// The paper compares its non-linear HDL-A models against "the linearized
// equivalent circuit method" [Tilmans, ref 1]: around a static operating
// point (V0, x0, C0) the electrostatic transducer becomes a *linear,
// time-invariant* two-port — a fixed capacitor C0 electrically, coupled to
// the mechanical side through a constant transduction factor Gamma:
//
//     i = C0 dV/dt + Gamma_i * u          (motional current)
//     F = Gamma_f * V + k_e * x           (transduction force + softening)
//
// with Gamma_i = Gamma_f = Gamma for a reciprocal coupling. Such a model is
// exact only at the linearization point; Fig. 5 of the paper shows it
// overshooting below and undershooting above it.
//
// Gamma conventions (see EXPERIMENTS.md for the full discussion — the
// paper's printed Gamma value is internally inconsistent with its own
// formula and parameters):
//  * kTangent:  Gamma = dF/dV|V0 = eps*A*V0/(d+x0)^2 (Tilmans' definition);
//    with the drive measured from 0 V this *doubles* the static deflection
//    at V0 (F is quadratic in V).
//  * kSecant:   Gamma = |F(V0)|/V0 = eps*A*V0/(2 (d+x0)^2); the linear
//    system then reproduces the non-linear static deflection exactly at V0 —
//    the "perfect convergence" at the 10 V linearization point seen in
//    Fig. 5 when pulses are driven from 0 V.
#pragma once

#include "core/reference.hpp"
#include "spice/circuit.hpp"

namespace usys::core {

enum class GammaKind {
  tangent,  ///< slope dF/dV at the bias (classic small-signal definition)
  secant,   ///< F(V0)/V0 (matches the paper's Fig. 5 behavior from 0 V)
};

/// Options for deriving the LTI model from an operating point.
struct LinearizationOptions {
  GammaKind gamma = GammaKind::secant;
  bool include_spring_softening = false;  ///< add k_e = dF/dx as negative stiffness
};

/// The derived small-signal element values.
struct LinearizedCoefficients {
  double c0 = 0.0;       ///< bias capacitance [F]
  double gamma = 0.0;    ///< transduction factor [N/V]
  double k_soft = 0.0;   ///< electrostatic (negative) spring constant [N/m]
  double x0 = 0.0;       ///< bias displacement [m]
  double f0 = 0.0;       ///< bias force [N]
};

/// Computes the equivalent-circuit element values for the transverse
/// electrostatic transducer at the resonator system's bias point.
LinearizedCoefficients linearize_transverse(const ResonatorParams& params,
                                            const LinearizationOptions& opts = {});

/// Linear time-invariant equivalent-circuit transducer device:
/// pins (a,b) electrical, (c,d) mechanical; c is the free plate.
///
///   absorbed current at a:  i  = C0 d(va-vb)/dt + Gamma (vc-vd)
///   delivered force at c:   F  = -Gamma (va-vb) - k_soft * x
///
/// (force sign: positive drive voltage attracts, matching the non-linear
/// model's orientation so the two displacement traces are comparable).
/// The coupling is power-conserving up to the intentional linearization.
class LinearizedTransverseElectrostatic final : public spice::Device {
 public:
  LinearizedTransverseElectrostatic(std::string name, int a, int b, int c, int d,
                                    LinearizedCoefficients coeffs);

  void bind(spice::Binder& binder) override;
  void evaluate(spice::EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void start_transient(const DVector& x_dc) override;
  void accept(const spice::AcceptCtx& ctx) override;

  const LinearizedCoefficients& coefficients() const noexcept { return k_; }

 private:
  int a_, b_, c_, d_;
  LinearizedCoefficients k_;
  spice::InternalState xstate_;  ///< displacement, used only when k_soft != 0
};

}  // namespace usys::core
