#include "common/rng.hpp"

#include <cmath>

#include "common/fnv1a.hpp"

namespace usys {

std::uint64_t rng_mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t rng_hash_name(std::string_view name) noexcept { return fnv1a(name); }

std::uint64_t rng_draw_u64(std::uint64_t seed, std::uint64_t counter,
                           std::uint64_t key) noexcept {
  // Absorb each word through a full avalanche before the next, so within
  // one (seed, key) stream the map counter -> value is injective.
  std::uint64_t h = 0x243f6a8885a308d3ull;  // pi fractional bits
  h = rng_mix64(h ^ seed);
  h = rng_mix64(h ^ counter);
  h = rng_mix64(h ^ key);
  return h;
}

double rng_uniform01(std::uint64_t seed, std::uint64_t counter,
                     std::uint64_t key) noexcept {
  // Top 53 bits -> [0, 1) on the canonical dyadic grid.
  return static_cast<double>(rng_draw_u64(seed, counter, key) >> 11) *
         0x1.0p-53;
}

double rng_uniform(std::uint64_t seed, std::uint64_t counter, std::uint64_t key,
                   double lo, double hi) noexcept {
  return lo + (hi - lo) * rng_uniform01(seed, counter, key);
}

double rng_normal(std::uint64_t seed, std::uint64_t counter, std::uint64_t key,
                  double mu, double sigma) noexcept {
  // Offset by half a grid step so p lies strictly inside (0, 1).
  double p = (static_cast<double>(rng_draw_u64(seed, counter, key) >> 11) +
              0.5) *
             0x1.0p-53;
  return mu + sigma * inverse_normal_cdf(p);
}

namespace {

// Standard-normal CDF via erfc (numerically stable in both tails).
double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x * 0.7071067811865475244);  // x / sqrt(2)
}

}  // namespace

double inverse_normal_cdf(double p) noexcept {
  if (!(p > 0.0 && p < 1.0)) {
    if (p == 0.0) return -HUGE_VAL;
    if (p == 1.0) return HUGE_VAL;
    return NAN;
  }

  // Acklam's rational approximation (relative error < 1.15e-9).
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;

  double x;
  if (p < plow) {
    double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    double q = p - 0.5;
    double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement against the exact CDF pushes the error to ~1 ulp.
  double e = normal_cdf(x) - p;
  double u = e * 2.5066282746310002 * std::exp(0.5 * x * x);  // e / pdf(x)
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

}  // namespace usys
