#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>

#include "common/matrix.hpp"
#include "dense_lu_oracle.hpp"

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
      test::lu_solve_oracle(a_want, b_want);
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

// ---------------------------------------------------------------------------
// DenseLu: lu_solve skips exact zeros; the oracle runs every product. Both
// must give the same bits (common/matrix.hpp states why).
// ---------------------------------------------------------------------------

/// Random square systems: n = 1..16, a share of exact (+0) zeros from 0 to
/// 80%, small integers (so elimination cancels to exact zeros) mixed with
/// values spread over six decades, and row orders shuffled so partial
/// pivoting has to swap rows back. Some systems are made singular on
/// purpose (a repeated row or an empty column). No entry is -0.
class SystemGen {
 public:
  explicit SystemGen(std::uint64_t seed) : rng_(seed) {}

  double unit() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  double value() {
    if (unit() < 0.4) {
      const double small[] = {-3.0, -2.0, -1.0, 1.0, 2.0, 3.0};
      return small[below(std::size(small))];
    }
    return (unit() * 2.0 - 1.0) * std::pow(10.0, unit() * 6.0 - 3.0);
  }
  void draw(double& v) { v = value(); }
  void draw(std::complex<double>& z) {
    const double pick = unit();
    z = {pick < 0.2 ? 0.0 : value(), pick > 0.8 ? 0.0 : value()};
  }

  template <typename T>
  void system(std::size_t trial, Matrix<T>& a, std::vector<T>& b) {
    const std::size_t n = 1 + trial % 16;
    const double zeros = 0.2 * static_cast<double>((trial / 16) % 5);
    a = Matrix<T>(n, n);
    b.assign(n, T{});
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if ((r == c && unit() < 0.9) || unit() >= zeros) draw(a(r, c));
      }
      if (unit() < 0.9) draw(b[r]);
    }
    if (n > 1 && unit() < 0.1) {
      const std::size_t from = below(n);
      const std::size_t to = (from + 1 + below(n - 1)) % n;
      if (unit() < 0.5) {
        for (std::size_t c = 0; c < n; ++c) a(to, c) = a(from, c);
      } else {
        for (std::size_t r = 0; r < n; ++r) a(r, to) = T{};
      }
    }
    if (unit() < 0.75) {
      for (std::size_t r = n; r-- > 1;) {
        const std::size_t s = below(r + 1);
        for (std::size_t c = 0; c < n; ++c) std::swap(a(r, c), a(s, c));
        std::swap(b[r], b[s]);
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// Outcome of one solve: the factors and solution it left behind, and the
/// pivot row it reported singular (or none).
template <typename T>
struct Solve {
  Matrix<T> a;
  std::vector<T> b;
  bool singular = false;
  std::size_t pivot_row = 0;
};

template <typename T, typename Fn>
Solve<T> run_solve(const Matrix<T>& a, const std::vector<T>& b, Fn solve) {
  Solve<T> s{a, b};
  try {
    solve(s.a, s.b);
  } catch (const SingularMatrixError& e) {
    s.singular = true;
    s.pivot_row = e.pivot_row();
  }
  return s;
}

template <typename T>
Solve<T> kernel(const Matrix<T>& a, const std::vector<T>& b) {
  return run_solve(a, b, [](Matrix<T>& m, std::vector<T>& v) { lu_solve(m, v); });
}
template <typename T>
Solve<T> oracle(const Matrix<T>& a, const std::vector<T>& b) {
  return run_solve(a, b, [](Matrix<T>& m, std::vector<T>& v) { test::lu_solve_oracle(m, v); });
}

/// Factors, solution and singular verdict must be the oracle's, bit for
/// bit. Counts the systems that solved and the ones that were singular.
template <typename T>
void expect_oracle_bits(const Matrix<T>& a, const std::vector<T>& b, std::size_t trial,
                        int& solved, int& singular) {
  const Solve<T> got = kernel(a, b);
  const Solve<T> want = oracle(a, b);
  ASSERT_EQ(got.singular, want.singular) << "trial " << trial;
  if (got.singular) {
    EXPECT_EQ(got.pivot_row, want.pivot_row) << "trial " << trial;
    ++singular;
  } else {
    ++solved;
  }
  EXPECT_TRUE(same_bits(got.a.data(), want.a.data())) << "trial " << trial << " factors";
  EXPECT_TRUE(same_bits(got.b, want.b)) << "trial " << trial << " solution";
}

template <typename T>
void check_random_systems(std::uint64_t seed) {
  SystemGen gen(seed);
  int solved = 0;
  int singular = 0;
  for (std::size_t trial = 0; trial < 12000; ++trial) {
    Matrix<T> a;
    std::vector<T> b;
    gen.system(trial, a, b);
    expect_oracle_bits(a, b, trial, solved, singular);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(solved, 10000);
  EXPECT_GT(singular, 100);
}

TEST(DenseLu, RealMatchesOracleBitForBit) { check_random_systems<double>(20261021); }

TEST(DenseLu, ComplexMatchesOracleBitForBit) {
  check_random_systems<std::complex<double>>(20261022);
}

template <typename T>
void check_non_finite(std::uint64_t seed) {
  // One or two entries of the matrix or the right-hand side become inf,
  // -inf or NaN: the guards must send 0*inf and 0*NaN wherever the full
  // kernel sent them, so every bit (NaN payloads included) is the oracle's.
  SystemGen gen(seed);
  const double specials[] = {HUGE_VAL, -HUGE_VAL, std::numeric_limits<double>::quiet_NaN()};
  int solved = 0;
  int singular = 0;
  for (std::size_t trial = 0; trial < 4000; ++trial) {
    Matrix<T> a;
    std::vector<T> b;
    gen.system(trial, a, b);
    const std::size_t n = b.size();
    const std::size_t hits = 1 + gen.below(2);
    for (std::size_t h = 0; h < hits; ++h) {
      const T special = T(specials[gen.below(std::size(specials))]);
      if (gen.unit() < 0.5) {
        b[gen.below(n)] = special;
      } else {
        a(gen.below(n), gen.below(n)) = special;
      }
    }
    expect_oracle_bits(a, b, trial, solved, singular);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(solved, 1000);
}

TEST(DenseLu, RealNonFiniteMatchesOracle) { check_non_finite<double>(7); }

TEST(DenseLu, ComplexNonFiniteMatchesOracle) { check_non_finite<std::complex<double>>(8); }

bool zero_sign_only(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0 || (x == 0.0 && y == 0.0);
}
bool zero_sign_only(const std::complex<double>& x, const std::complex<double>& y) {
  return zero_sign_only(x.real(), y.real()) && zero_sign_only(x.imag(), y.imag());
}

template <typename T>
void check_negative_zero_rhs(std::uint64_t seed) {
  // A right-hand side holding -0 (the Newton dx = -resid does) may change
  // only the sign of an exactly-zero solution component; the factors and
  // every other bit are the oracle's.
  SystemGen gen(seed);
  int solved = 0;
  int differed = 0;
  for (std::size_t trial = 0; trial < 4000; ++trial) {
    Matrix<T> a;
    std::vector<T> b;
    gen.system(trial, a, b);
    for (T& v : b) {
      if (gen.unit() < 0.5) v = -T{};
    }
    const Solve<T> got = kernel(a, b);
    const Solve<T> want = oracle(a, b);
    ASSERT_EQ(got.singular, want.singular) << "trial " << trial;
    EXPECT_EQ(got.pivot_row, want.pivot_row) << "trial " << trial;
    EXPECT_TRUE(same_bits(got.a.data(), want.a.data())) << "trial " << trial << " factors";
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_TRUE(zero_sign_only(got.b[i], want.b[i])) << "trial " << trial << " unknown " << i;
    }
    if (!got.singular) ++solved;
    if (!same_bits(got.b, want.b)) ++differed;
  }
  EXPECT_GT(solved, 3000);
  EXPECT_GT(differed, 0);  // the -0 case is really exercised
}

TEST(DenseLu, RealNegativeZeroRhsDiffersOnlyInZeroSigns) {
  check_negative_zero_rhs<double>(11);
}

TEST(DenseLu, ComplexNegativeZeroRhsDiffersOnlyInZeroSigns) {
  check_negative_zero_rhs<std::complex<double>>(12);
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
