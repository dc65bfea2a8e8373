#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <random>

#include "common/matrix.hpp"

namespace usys {
namespace {

TEST(Matrix, LuSolves2x2) {
  DMatrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  DVector b = {5.0, 10.0};
  lu_solve(a, b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(Matrix, LuRequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  DMatrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  DVector b = {2.0, 3.0};
  lu_solve(a, b);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(Matrix, LuSingularThrows) {
  DMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  DVector b = {1.0, 2.0};
  EXPECT_THROW(lu_solve(a, b), SingularMatrixError);
}

TEST(Matrix, LuRandomRoundTrip) {
  // x -> b = A x -> solve -> x for a deterministic pseudo-random matrix.
  const std::size_t n = 12;
  DMatrix a(n, n);
  unsigned seed = 12345;
  auto rnd = [&seed]() {
    seed = seed * 1664525u + 1013904223u;
    return static_cast<double>(seed % 1000) / 500.0 - 1.0;
  };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rnd();
    a(r, r) += 4.0;  // diagonally dominant => nonsingular
  }
  DVector x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = rnd();
  DVector b(n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b[r] += a(r, c) * x_true[c];
  }
  DMatrix a_copy = a;
  lu_solve(a_copy, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
}

TEST(Matrix, ComplexLu) {
  ZMatrix a(2, 2);
  a(0, 0) = {1.0, 1.0};
  a(0, 1) = {0.0, 0.0};
  a(1, 0) = {0.0, 0.0};
  a(1, 1) = {0.0, 2.0};
  ZVector b = {{2.0, 0.0}, {4.0, 0.0}};
  lu_solve(a, b);
  EXPECT_NEAR(b[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(b[0].imag(), -1.0, 1e-12);
  EXPECT_NEAR(b[1].real(), 0.0, 1e-12);
  EXPECT_NEAR(b[1].imag(), -2.0, 1e-12);
}

/// The complex LU as it pivoted before the squared-modulus search: the
/// largest std::abs, the first row on ties. Same elimination as lu_solve.
void lu_solve_abs_oracle(ZMatrix& a, ZVector& b) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double m = std::abs(a(r, k));
      if (m > best) {
        best = m;
        pivot = r;
      }
    }
    if (best < 1e-300) throw SingularMatrixError(k);
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot, c));
      std::swap(b[k], b[pivot]);
    }
    const std::complex<double> inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const std::complex<double> factor = a(r, k) * inv_pivot;
      if (factor == std::complex<double>{}) continue;
      a(r, k) = {};
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= factor * a(k, c);
      b[r] -= factor * b[k];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    std::complex<double> sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a(i, c) * b[c];
    b[i] = sum / a(i, i);
  }
}

TEST(Matrix, ComplexPivotingMatchesModulusOracle) {
  // Ties and near-ties in modulus (equal-radius entries at different
  // angles, exact 3-4-5 ties), zeros, and magnitudes whose squares
  // overflow, underflow or go subnormal: the squared-modulus search must
  // pick every pivot the std::abs search picks, so results match bit for
  // bit, singular verdicts included.
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double scales[] = {1.0, 1e-3, 1e3, 1e150, 1e-150, 1e200, 1e-170, 1e-310};
  const std::complex<double> ties[] = {{3, 4}, {4, 3}, {-5, 0}, {0, 5}, {0, -5}, {-3, -4}};
  int compared = 0;
  int singular = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(trial % 6);
    const double scale = scales[static_cast<std::size_t>(trial / 6) % std::size(scales)];
    const double radius = scale * (0.5 + unit(rng));
    ZMatrix a(n, n);
    ZVector b(n);
    for (std::size_t r = 0; r < n; ++r) {
      b[r] = {unit(rng) - 0.5, unit(rng) - 0.5};
      for (std::size_t c = 0; c < n; ++c) {
        const double pick = unit(rng);
        if (pick < 0.15) {
          a(r, c) = {};
        } else if (pick < 0.3) {
          a(r, c) = scale * ties[static_cast<std::size_t>(unit(rng) * std::size(ties))];
        } else if (pick < 0.65) {
          a(r, c) = std::polar(radius, 2.0 * M_PI * unit(rng));  // equal modulus
        } else {
          a(r, c) = {scale * (unit(rng) - 0.5), scale * (unit(rng) - 0.5)};
        }
      }
    }
    ZMatrix a_want = a;
    ZVector b_want = b;
    std::size_t want_row = 0;
    bool want_singular = false;
    try {
      lu_solve_abs_oracle(a_want, b_want);
    } catch (const SingularMatrixError& e) {
      want_singular = true;
      want_row = e.pivot_row();
    }
    try {
      lu_solve(a, b);
      ASSERT_FALSE(want_singular) << "trial " << trial;
    } catch (const SingularMatrixError& e) {
      ASSERT_TRUE(want_singular) << "trial " << trial;
      EXPECT_EQ(e.pivot_row(), want_row) << "trial " << trial;
      ++singular;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&b[i], &b_want[i], sizeof b[i]), 0)
          << "trial " << trial << " unknown " << i;
    }
    ++compared;
  }
  EXPECT_GT(compared, 10000);
  EXPECT_GT(singular, 0);
}

TEST(Matrix, LeastSquaresLine) {
  // Fit y = 2x + 1 through exact samples.
  DMatrix a(4, 2);
  DVector b(4);
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = xs[i];
    b[i] = 2.0 * xs[i] + 1.0;
  }
  const DVector c = least_squares(a, b);
  EXPECT_NEAR(c[0], 1.0, 1e-10);
  EXPECT_NEAR(c[1], 2.0, 1e-10);
}

TEST(Matrix, LeastSquaresOverdeterminedNoise) {
  // Residual-minimizing solution of an inconsistent system lies between.
  DMatrix a(2, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 1.0;
  DVector b = {1.0, 3.0};
  const DVector c = least_squares(a, b);
  EXPECT_NEAR(c[0], 2.0, 1e-12);
}

TEST(Matrix, FillAndResize) {
  DMatrix m(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.0);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  m.resize(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_DOUBLE_EQ(m(3, 3), 0.0);
}

}  // namespace
}  // namespace usys
