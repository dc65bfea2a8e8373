#include "spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/constants.hpp"

namespace usys::spice {

// ---------------------------------------------------------------------------
// Result accessors
// ---------------------------------------------------------------------------

std::vector<double> TranResult::signal(int unknown) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) out.push_back(at(k, unknown));
  return out;
}

double TranResult::at(std::size_t k, int unknown) const {
  if (unknown < 0) return 0.0;  // ground reads 0 at any accepted point
  return x.at(k).at(static_cast<std::size_t>(unknown));
}

double TranResult::sample(double t, int unknown) const {
  if (time.empty()) return 0.0;
  if (std::isnan(t)) return std::numeric_limits<double>::quiet_NaN();
  if (t <= time.front()) return at(0, unknown);
  if (t >= time.back()) return at(time.size() - 1, unknown);
  const auto it = std::lower_bound(time.begin(), time.end(), t);
  const std::size_t k = static_cast<std::size_t>(it - time.begin());
  const double t0 = time[k - 1];
  const double t1 = time[k];
  const double w = (t1 > t0) ? (t - t0) / (t1 - t0) : 1.0;
  return (1.0 - w) * at(k - 1, unknown) + w * at(k, unknown);
}

double AcOptions::frequency_count() const noexcept {
  if (f_start == f_stop) return 1.0;
  const double n = sweep == SweepKind::linear
                       ? points
                       : std::ceil(std::log10(f_stop / f_start) * points) + 1.0;
  return std::max(2.0, n);
}

std::vector<double> AcOptions::frequencies() const {
  const int total = static_cast<int>(frequency_count());
  std::vector<double> freqs;
  freqs.reserve(static_cast<std::size_t>(total));
  if (total == 1) {
    freqs.push_back(f_start);
    return freqs;
  }
  const double decades = std::log10(f_stop / f_start);
  for (int i = 0; i < total; ++i) {
    const double di = static_cast<double>(i);
    freqs.push_back(sweep == SweepKind::linear
                        ? f_start + (f_stop - f_start) * di / (total - 1)
                        : f_start * std::pow(10.0, decades * di / (total - 1)));
  }
  return freqs;
}

std::complex<double> AcResult::at(std::size_t k, int unknown) const {
  if (unknown < 0) return 0.0;  // ground reads 0 at any frequency
  return x.at(k).at(static_cast<std::size_t>(unknown));
}

double AcResult::magnitude_db(std::size_t k, int unknown) const {
  return 20.0 * std::log10(std::abs(at(k, unknown)));
}

double AcResult::phase_deg(std::size_t k, int unknown) const {
  return std::arg(at(k, unknown)) * 180.0 / kPi;
}

}  // namespace usys::spice
