// Piecewise-linear behavioral macromodels generated from PXT sweeps, plus
// the circuit device and HDL-AT model generation that consume them.
//
// The paper: "By iterating the variation of boundary conditions and
// extracting the parameter of interest, a piecewise linear behavioral macro
// model is created. A HDL-A model is then generated..." Our HDL-AT has no
// table literals, so the generated HDL uses a least-squares polynomial fit
// of C(x); the native PwlTransducer device interpolates the raw table
// exactly. Both paths are validated against the analytic model in the
// benches.
#pragma once

#include <string>
#include <vector>

#include "pxt/extractor.hpp"
#include "spice/circuit.hpp"

namespace usys::pxt {

/// 1D piecewise-linear function y(x) with clamped extrapolation.
class Pwl1 {
 public:
  Pwl1() = default;
  Pwl1(std::vector<double> x, std::vector<double> y);

  double operator()(double x) const;
  /// Slope dy/dx of the active segment (constant per segment).
  double slope(double x) const;

  const std::vector<double>& xs() const noexcept { return x_; }
  const std::vector<double>& ys() const noexcept { return y_; }

 private:
  std::vector<double> x_, y_;
};

/// Capacitance macromodel C(x) distilled from an extraction table.
Pwl1 capacitance_model(const ExtractionTable& table);

/// Energy-consistent PWL electrostatic transducer:
///   i = d(C(x) V)/dt,  F_plate = +1/2 V^2 dC/dx  (from the table slope).
/// Pins like TransverseElectrostatic: (a,b) electrical, (c,d) mechanical.
class PwlTransducer final : public spice::Device {
 public:
  PwlTransducer(std::string name, int a, int b, int c, int d, Pwl1 cap_of_x);

  void bind(spice::Binder& binder) override;
  void evaluate(spice::EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void start_transient(const DVector& x_dc) override;
  void accept(const spice::AcceptCtx& ctx) override;

  void set_initial_displacement(double x0) noexcept { xstate_.set_initial(x0); }
  double displacement() const noexcept { return xstate_.committed(); }

 private:
  int a_, b_, c_, d_;
  Pwl1 cap_;
  spice::InternalState xstate_;
};

/// Bilinear interpolation over a rectangular (x, v) grid with clamped
/// extrapolation — the 2D piecewise-linear macromodel the paper's static
/// extraction produces ("by repeating this procedure for different voltages
/// and displacements").
class Pwl2 {
 public:
  Pwl2() = default;
  /// `values[i*vs.size() + j]` is the sample at (xs[i], vs[j]). Both axes
  /// must be strictly increasing with >= 2 points.
  Pwl2(std::vector<double> xs, std::vector<double> vs, std::vector<double> values);

  double operator()(double x, double v) const;
  /// Partial derivatives of the active cell (constant per cell).
  double d_dx(double x, double v) const;
  double d_dv(double x, double v) const;

 private:
  struct Cell {
    std::size_t i, j;
    double wx, wv;
  };
  Cell locate(double x, double v) const;
  double at(std::size_t i, std::size_t j) const { return val_[i * vs_.size() + j]; }

  std::vector<double> xs_, vs_, val_;
};

/// Force macromodel F(x, V) distilled from an extraction table (Maxwell-
/// stress column).
Pwl2 force_model(const ExtractionTable& table);

/// Table-driven transducer using *both* extracted quantities: electrical
/// charge from the C(x) table and plate force from the F(x, V) table —
/// the most literal realization of the paper's PXT output. Not exactly
/// energy-conservative (the tables are sampled independently), which is
/// precisely the documented trade-off of extracted macromodels.
class PwlForceTransducer final : public spice::Device {
 public:
  PwlForceTransducer(std::string name, int a, int b, int c, int d, Pwl1 cap_of_x,
                     Pwl2 force_of_xv);

  void bind(spice::Binder& binder) override;
  void evaluate(spice::EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void start_transient(const DVector& x_dc) override;
  void accept(const spice::AcceptCtx& ctx) override;

  void set_initial_displacement(double x0) noexcept { xstate_.set_initial(x0); }

 private:
  int a_, b_, c_, d_;
  Pwl1 cap_;
  Pwl2 force_;
  spice::InternalState xstate_;
};

/// Least-squares polynomial fit of degree `degree` through (x, y) samples.
/// Returns coefficients c0..cN (y = sum c_k x^k).
std::vector<double> polyfit(const std::vector<double>& x, const std::vector<double>& y,
                            int degree);

double polyval(const std::vector<double>& coeffs, double x);

/// Generates HDL-AT source for the extracted device: a transverse
/// electrostatic transducer whose C(x) is the polynomial fit of the PXT
/// table (entity name `pxt_etrans`). Degree 2-3 reproduces the 1/(d+x)
/// curve to well under a percent over the swept range.
std::string generate_hdl_model(const ExtractionTable& table, int poly_degree = 3);

}  // namespace usys::pxt
