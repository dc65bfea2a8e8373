// Nonlinear electrical devices — the "electronics" side of the paper's
// complete-microsystem simulations, and a workout for the Newton solver's
// gmin/source-stepping fallbacks.
#pragma once

#include "spice/circuit.hpp"

namespace usys::spice {

/// Self-heating resistor (electro-thermal two-port): Joule power flows into
/// a thermal node, and the resistance tracks the node temperature:
///
///   R(T)   = r0 * (1 + tc * (T - T_ref))
///   i      = (va - vb) / R(T)                (electrical pins a, b)
///   P      = (va - vb)^2 / R(T)              (heat delivered into pin t)
///
/// T is the thermal node's effort (temperature rise over ambient if the
/// thermal net is referenced to ground). This is the "electro-thermal"
/// coupling the paper cites among emerging microsystem EDA tools, expressed
/// in the same lumped formalism as the electromechanical transducers.
class JouleHeater : public Device {
 public:
  JouleHeater(std::string name, int a, int b, int thermal, double r0,
              double temp_coeff = 0.0, double t_ref = 0.0);

  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  bool stores_charge() const noexcept override { return false; }

 private:
  int a_, b_, t_;
  double r0_, tc_, tref_;
};

/// Shockley junction diode: i = Is (exp(v/(n Vt)) - 1), anode a, cathode b.
/// Beyond `v_crit` the exponential is continued linearly (standard SPICE
/// "explosion" guard) so Newton iterates stay finite without per-device
/// junction limiting.
class Diode : public Device {
 public:
  Diode(std::string name, int a, int b, double i_sat = 1e-14, double emission = 1.0,
        double v_thermal = 0.02585);

  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  bool stores_charge() const noexcept override { return false; }

  double i_sat() const noexcept { return is_; }

 private:
  int a_, b_;
  double is_, n_, vt_;
  double v_crit_;
};

}  // namespace usys::spice
