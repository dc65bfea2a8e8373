// Piecewise-linear behavioral macromodels generated from PXT sweeps, and the
// HDL-AT model generation that consumes them.
//
// The paper: "By iterating the variation of boundary conditions and
// extracting the parameter of interest, a piecewise linear behavioral macro
// model is created. A HDL-A model is then generated..." Pwl1 is that C(x)
// table. Our HDL-AT has no table literals, so generate_hdl_model emits a
// least-squares polynomial fit of C(x) instead; the generated model is what
// a netlist or circuit instantiates (bench_pxt_macromodel and
// example_pxt_extraction compare it with the analytic model).
#pragma once

#include <string>
#include <vector>

#include "pxt/extractor.hpp"

namespace usys::pxt {

/// 1D piecewise-linear function y(x) with clamped extrapolation.
class Pwl1 {
 public:
  Pwl1() = default;
  Pwl1(std::vector<double> x, std::vector<double> y);

  double operator()(double x) const;

  const std::vector<double>& xs() const noexcept { return x_; }
  const std::vector<double>& ys() const noexcept { return y_; }

 private:
  std::vector<double> x_, y_;
};

/// Capacitance macromodel C(x) distilled from an extraction table.
Pwl1 capacitance_model(const ExtractionTable& table);

/// Least-squares polynomial fit of degree `degree` through (x, y) samples.
/// Returns coefficients c0..cN (y = sum c_k x^k).
std::vector<double> polyfit(const std::vector<double>& x, const std::vector<double>& y,
                            int degree);

/// Generates HDL-AT source for the extracted device: a transverse
/// electrostatic transducer whose C(x) is the polynomial fit of the PXT
/// table (entity name `pxt_etrans`). Degree 2-3 reproduces the 1/(d+x)
/// curve to well under a percent over the swept range.
std::string generate_hdl_model(const ExtractionTable& table, int poly_degree = 3);

}  // namespace usys::pxt
