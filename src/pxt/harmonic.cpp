#include "pxt/harmonic.hpp"

#include <cmath>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/matrix.hpp"

namespace usys::pxt {

std::complex<double> RationalFit::eval(double freq_hz) const {
  const std::complex<double> s(0.0, 2.0 * kPi * freq_hz / scale);
  std::complex<double> n(0.0, 0.0);
  for (std::size_t i = num.size(); i-- > 0;) n = n * s + num[i];
  std::complex<double> d(0.0, 0.0);
  for (std::size_t i = den.size(); i-- > 0;) d = d * s + den[i];
  return n / d;
}

RationalFit levy_fit(const std::vector<FreqSample>& samples, int num_order,
                     int den_order) {
  if (num_order < 0 || den_order < 1 || num_order > den_order)
    throw std::invalid_argument("levy_fit: need 0 <= m <= n, n >= 1");
  const std::size_t unknowns =
      static_cast<std::size_t>(num_order) + 1 + static_cast<std::size_t>(den_order);
  if (2 * samples.size() < unknowns)
    throw std::invalid_argument("levy_fit: not enough samples for the requested orders");

  // Normalize s by the geometric-mean angular frequency for conditioning.
  double log_acc = 0.0;
  for (const auto& s : samples) log_acc += std::log(2.0 * kPi * std::max(s.freq_hz, 1e-30));
  const double scale = std::exp(log_acc / static_cast<double>(samples.size()));

  DMatrix a(2 * samples.size(), unknowns);
  DVector rhs(2 * samples.size());
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const std::complex<double> s(0.0, 2.0 * kPi * samples[k].freq_hz / scale);
    const std::complex<double> h = samples[k].h;
    std::complex<double> sp(1.0, 0.0);
    // Numerator columns: +s^i.
    std::vector<std::complex<double>> spow(static_cast<std::size_t>(den_order) + 1);
    for (int i = 0; i <= den_order; ++i) {
      spow[static_cast<std::size_t>(i)] = sp;
      sp *= s;
    }
    for (int i = 0; i <= num_order; ++i) {
      a(2 * k, static_cast<std::size_t>(i)) = spow[static_cast<std::size_t>(i)].real();
      a(2 * k + 1, static_cast<std::size_t>(i)) = spow[static_cast<std::size_t>(i)].imag();
    }
    // Denominator columns: -H s^j (j = 1..n).
    for (int j = 1; j <= den_order; ++j) {
      const std::complex<double> v = -h * spow[static_cast<std::size_t>(j)];
      const std::size_t col = static_cast<std::size_t>(num_order) + static_cast<std::size_t>(j);
      a(2 * k, col) = v.real();
      a(2 * k + 1, col) = v.imag();
    }
    rhs[2 * k] = h.real();
    rhs[2 * k + 1] = h.imag();
  }

  const DVector theta = least_squares(a, rhs);
  RationalFit fit;
  fit.scale = scale;
  fit.num.assign(theta.begin(), theta.begin() + num_order + 1);
  fit.den.resize(static_cast<std::size_t>(den_order) + 1);
  fit.den[0] = 1.0;
  for (int j = 1; j <= den_order; ++j)
    fit.den[static_cast<std::size_t>(j)] =
        theta[static_cast<std::size_t>(num_order) + static_cast<std::size_t>(j)];
  return fit;
}

double fit_error(const RationalFit& fit, const std::vector<FreqSample>& samples) {
  double worst = 0.0;
  for (const auto& s : samples) {
    const double mag = std::abs(s.h);
    if (mag <= 0.0) continue;
    worst = std::max(worst, std::abs(fit.eval(s.freq_hz) - s.h) / mag);
  }
  return worst;
}

std::vector<FreqSample> resonator_response(double mass, double stiffness, double damping,
                                           const std::vector<double>& freqs_hz) {
  std::vector<FreqSample> out;
  out.reserve(freqs_hz.size());
  for (double f : freqs_hz) {
    const double w = 2.0 * kPi * f;
    const std::complex<double> den(stiffness - mass * w * w, w * damping);
    out.push_back({f, 1.0 / den});
  }
  return out;
}

TransferFunctionDevice::TransferFunctionDevice(std::string name, int in_p, int in_n,
                                               int out_p, int out_n, RationalFit fit)
    : Device(std::move(name)),
      in_p_(in_p),
      in_n_(in_n),
      out_p_(out_p),
      out_n_(out_n),
      fit_(std::move(fit)) {
  if (fit_.den.size() < 2)
    throw std::invalid_argument("TransferFunctionDevice: denominator order must be >= 1");
  if (fit_.num.size() > fit_.den.size())
    throw std::invalid_argument("TransferFunctionDevice: improper transfer function");
}

void TransferFunctionDevice::bind(spice::Binder& binder) {
  const int n = static_cast<int>(fit_.den.size()) - 1;
  z_.clear();
  for (int i = 0; i < n; ++i) z_.push_back(binder.alloc_branch(Nature::electrical));
  out_branch_ = binder.alloc_branch(Nature::electrical);
}

void TransferFunctionDevice::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {in_p_, in_n_, out_p_, out_n_, out_branch_});
  out.insert(out.end(), z_.begin(), z_.end());
}

void TransferFunctionDevice::evaluate(spice::EvalCtx& ctx) {
  const int n = static_cast<int>(z_.size());
  const double tau = 1.0 / fit_.scale;  // s = tau * d/dt
  const double u = ctx.v(in_p_) - ctx.v(in_n_);

  // State chain: tau z_i' = z_{i+1} (i < n).
  for (int i = 0; i + 1 < n; ++i) {
    const int row = z_[static_cast<std::size_t>(i)];
    ctx.q_add(row, tau * ctx.v(row));
    ctx.jq_add(row, row, tau);
    ctx.f_add(row, -ctx.v(z_[static_cast<std::size_t>(i) + 1]));
    ctx.jf_add(row, z_[static_cast<std::size_t>(i) + 1], -1.0);
  }
  // Last row: a_n tau z_n' = u - (z_1 + a_1 z_2 + ... + a_{n-1} z_n).
  {
    const int row = z_[static_cast<std::size_t>(n) - 1];
    const double an = fit_.den[static_cast<std::size_t>(n)];
    ctx.q_add(row, an * tau * ctx.v(row));
    ctx.jq_add(row, row, an * tau);
    double acc = -u;
    ctx.jf_add(row, in_p_, -1.0);
    ctx.jf_add(row, in_n_, 1.0);
    for (int j = 0; j < n; ++j) {
      const double aj = fit_.den[static_cast<std::size_t>(j)];  // a_0 = 1
      acc += aj * ctx.v(z_[static_cast<std::size_t>(j)]);
      ctx.jf_add(row, z_[static_cast<std::size_t>(j)], aj);
    }
    ctx.f_add(row, acc);
  }
  // Output: y = sum b_i z_{i+1} (+ direct term if m == n).
  {
    const int row = out_branch_;
    ctx.f_add(out_p_, ctx.v(row));
    ctx.f_add(out_n_, -ctx.v(row));
    ctx.jf_add(out_p_, row, 1.0);
    ctx.jf_add(out_n_, row, -1.0);

    double y = 0.0;
    ctx.f_add(row, ctx.v(out_p_) - ctx.v(out_n_));
    ctx.jf_add(row, out_p_, 1.0);
    ctx.jf_add(row, out_n_, -1.0);
    const int m = static_cast<int>(fit_.num.size()) - 1;
    for (int i = 0; i <= m && i < n; ++i) {
      const double bi = fit_.num[static_cast<std::size_t>(i)];
      y += bi * ctx.v(z_[static_cast<std::size_t>(i)]);
      ctx.jf_add(row, z_[static_cast<std::size_t>(i)], -bi);
    }
    if (m == n) {
      // Direct feedthrough: b_n s^n z1 = (b_n/a_n)(u - z1 - ... ).
      const double g = fit_.num[static_cast<std::size_t>(m)] /
                       fit_.den[static_cast<std::size_t>(n)];
      y += g * u;
      ctx.jf_add(row, in_p_, -g);
      ctx.jf_add(row, in_n_, g);
      for (int j = 0; j < n; ++j) {
        const double aj = fit_.den[static_cast<std::size_t>(j)];
        y -= g * aj * ctx.v(z_[static_cast<std::size_t>(j)]);
        ctx.jf_add(row, z_[static_cast<std::size_t>(j)], g * aj);
      }
    }
    ctx.f_add(row, -y);
  }
}

}  // namespace usys::pxt
