// Passive two-terminal elements, electrical and mechanical.
//
// Under the paper's FI analogy the mechanical elements are the electrical
// ones re-typed:  mass <-> capacitor (C = m), spring <-> inductor (L = 1/k),
// damper <-> resistor (conductance = alpha). We provide the mechanical
// elements as first-class devices so netlists read like the physics, while
// sharing the stamp math with their electrical twins.
#pragma once

#include <cmath>

#include "spice/circuit.hpp"

namespace usys::spice {

/// Linear resistor, i = (va - vb)/R. Nature-generic (verified at bind).
class Resistor : public Device {
 public:
  Resistor(std::string name, int a, int b, double resistance,
           Nature nature = Nature::electrical);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  double resistance() const noexcept { return r_; }
  /// The one value rule the constructor and set_param share: a resistance
  /// must not be <= 0 (NaN passes here and is left to the parameter lint).
  static bool valid(double r) noexcept { return !(r <= 0.0); }
  bool set_param(std::string_view key, double value) override {
    if (key != "r" || !valid(value)) return false;
    r_ = value;
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "r") return false;
    out = r_;
    return true;
  }

 protected:
  /// Parameter checks of lint(); Damper re-labels them in damping terms.
  virtual void lint_values(LintSink& sink) const;
  /// For derived mechanical twins (Damper) that keep r_ = f(their param).
  void set_resistance(double r) noexcept { r_ = r; }

 private:
  int a_, b_;
  double r_;
  Nature nature_;
};

/// Linear capacitor, q = C (va - vb).
class Capacitor : public Device {
 public:
  Capacitor(std::string name, int a, int b, double capacitance,
            Nature nature = Nature::electrical);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  double capacitance() const noexcept { return c_; }
  /// Shared by the constructor and set_param (see Resistor::valid).
  static bool valid(double c) noexcept { return !(c <= 0.0); }
  bool set_param(std::string_view key, double value) override {
    if (key != "c" || !valid(value)) return false;
    c_ = value;
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "c") return false;
    out = c_;
    return true;
  }

 protected:
  virtual void lint_values(LintSink& sink) const;
  void set_capacitance(double c) noexcept { c_ = c; }

 private:
  int a_, b_;
  double c_;
  Nature nature_;
};

/// Linear inductor with a branch current unknown; flux = L i.
class Inductor : public Device {
 public:
  Inductor(std::string name, int a, int b, double inductance,
           Nature nature = Nature::electrical);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  double inductance() const noexcept { return l_; }
  /// Shared by the constructor and set_param (see Resistor::valid).
  static bool valid(double l) noexcept { return !(l <= 0.0); }
  /// Unknown index of the branch current (valid after bind).
  int branch() const noexcept { return br_; }
  bool set_param(std::string_view key, double value) override {
    if (key != "l" || !valid(value)) return false;
    l_ = value;
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "l") return false;
    out = l_;
    return true;
  }

 protected:
  virtual void lint_values(LintSink& sink) const;
  void set_inductance(double l) noexcept { l_ = l; }

 private:
  int a_, b_;
  double l_;
  Nature nature_;
  int br_ = -1;
};

/// Point mass attached between a mechanical node and the fixed frame:
/// F = m dv/dt. (The paper's Fig. 4 shows it as C = m.)
class Mass : public Capacitor {
 public:
  Mass(std::string name, int node, double mass_kg)
      : Capacitor(std::move(name), node, Circuit::kGround, mass_kg,
                  Nature::mechanical_translation) {}
  double mass() const noexcept { return capacitance(); }
  // Shadows Capacitor's "c": a Mass is addressed by its netlist key "m".
  bool set_param(std::string_view key, double value) override {
    if (key != "m" || !valid(value)) return false;
    set_capacitance(value);
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "m") return false;
    out = capacitance();
    return true;
  }

 protected:
  void lint_values(LintSink& sink) const override;
};

/// Linear spring between two mechanical nodes: F = k * integral(v) dt,
/// i.e. an inductor with L = 1/k. Its branch flow *is* the spring force, so
/// the DC solution exposes the static force balance directly.
class Spring : public Inductor {
 public:
  Spring(std::string name, int a, int b, double stiffness)
      : Inductor(std::move(name), a, b, 1.0 / stiffness, Nature::mechanical_translation),
        k_(stiffness) {}
  double stiffness() const noexcept { return k_; }
  /// Spring displacement = force / k; force is the branch unknown.
  double displacement(const DVector& x) const {
    return x.at(static_cast<std::size_t>(branch())) / k_;
  }
  // Shadows Inductor's "l": keeps k_ and the stamped L = 1/k in lockstep.
  bool set_param(std::string_view key, double value) override {
    if (key != "k" || !Inductor::valid(1.0 / value)) return false;
    k_ = value;
    set_inductance(1.0 / value);
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "k") return false;
    out = k_;
    return true;
  }

 protected:
  void lint_values(LintSink& sink) const override;

 private:
  double k_;
};

/// Viscous damper: F = alpha * (va - vb), i.e. a resistor with R = 1/alpha.
class Damper : public Resistor {
 public:
  Damper(std::string name, int a, int b, double alpha)
      : Resistor(std::move(name), a, b, 1.0 / alpha, Nature::mechanical_translation),
        alpha_(alpha) {}
  double alpha() const noexcept { return alpha_; }
  // Shadows Resistor's "r": keeps alpha_ and the stamped R = 1/alpha in sync.
  bool set_param(std::string_view key, double value) override {
    if (key != "alpha" || !Resistor::valid(1.0 / value)) return false;
    alpha_ = value;
    set_resistance(1.0 / value);
    return true;
  }
  bool get_param(std::string_view key, double& out) const override {
    if (key != "alpha") return false;
    out = alpha_;
    return true;
  }

 protected:
  void lint_values(LintSink& sink) const override;

 private:
  double alpha_;
};

}  // namespace usys::spice
