// Harmonic macromodeling (paper, PXT section): "Harmonic FE analysis
// produces real and imaginary data of DOFs as discrete functions of
// frequencies, i.e. the frequency response (amplitude and phase). A
// polynomial filter is fitted to such a macro model, thus generating a data
// flow HDL-A model."
//
// Our equivalent: take a sampled complex frequency response (from an .ac
// sweep of a device-level model, or from the analytic resonator response),
// fit a rational transfer function H(s) = N(s)/D(s) by Levy's linearized
// least squares, and realize it as a circuit device (controller-canonical
// state form) usable in system-level simulation. The paper's proprietary
// z-domain data-flow constructs are not reproduced; the native device plays
// that role (documented substitution, see DESIGN.md).
#pragma once

#include <complex>
#include <vector>

#include "spice/circuit.hpp"

namespace usys::pxt {

/// A sampled frequency response point.
struct FreqSample {
  double freq_hz;
  std::complex<double> h;
};

/// Rational transfer function in s: H(s) = (b0 + b1 s + ...) / (1 + a1 s + ...).
struct RationalFit {
  std::vector<double> num;  ///< b0..bm
  std::vector<double> den;  ///< 1, a1..an (den[0] == 1)
  double scale = 1.0;       ///< s was normalized by this (rad/s) during the fit

  std::complex<double> eval(double freq_hz) const;
};

/// Levy least-squares fit of the given orders. `num_order`/`den_order` are
/// the polynomial degrees m and n. Frequencies are normalized internally
/// for conditioning. Throws std::invalid_argument on insufficient samples.
RationalFit levy_fit(const std::vector<FreqSample>& samples, int num_order, int den_order);

/// Max relative magnitude error of the fit over the samples.
double fit_error(const RationalFit& fit, const std::vector<FreqSample>& samples);

/// Analytic frequency response of the paper's mechanical resonator from
/// force to displacement: X/F = 1/(k - m w^2 + j w alpha).
std::vector<FreqSample> resonator_response(double mass, double stiffness, double damping,
                                           const std::vector<double>& freqs_hz);

/// Linear two-port realizing v_out = H(d/dt) v_in via controller-canonical
/// states (n internal branch unknowns + 1 output driver). Input is read
/// differentially (in_p - in_n); output drives out (vs. ground/out_n).
class TransferFunctionDevice final : public spice::Device {
 public:
  TransferFunctionDevice(std::string name, int in_p, int in_n, int out_p, int out_n,
                         RationalFit fit);

  void bind(spice::Binder& binder) override;
  void evaluate(spice::EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

 private:
  int in_p_, in_n_, out_p_, out_n_;
  RationalFit fit_;
  std::vector<int> z_;   ///< state unknowns z_1..z_n
  int out_branch_ = -1;
};

}  // namespace usys::pxt
