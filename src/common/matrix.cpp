#include "common/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/fault_inject.hpp"

namespace usys {
namespace {

/// Partial pivoting: the row in [k, n) whose column-k entry has the largest
/// modulus, the first such row on ties.
std::size_t pivot_row(const DMatrix& a, std::size_t k) {
  std::size_t pivot = k;
  double best = std::abs(a(k, k));
  for (std::size_t r = k + 1; r < a.rows(); ++r) {
    const double m = std::abs(a(r, k));
    if (m > best) {
      best = m;
      pivot = r;
    }
  }
  return pivot;
}

/// The complex search compares squared moduli, which skip hypot's scaling.
/// |z|^2 computed as re*re + im*im is within ~2 ulps of the exact value
/// while it stays a normal double, and std::abs is within ~1 ulp of |z|, so
/// a gap of more than 16 ulps between two squares decides the comparison
/// exactly as std::abs would. Anything closer, and any square that
/// overflows or leaves the normal range, is decided by std::abs itself, so
/// the pivot sequence is the one the std::abs search picks.
std::size_t pivot_row(const ZMatrix& a, std::size_t k) {
  constexpr double kMargin = 16 * std::numeric_limits<double>::epsilon();
  const auto square = [](const std::complex<double>& z) {
    return z.real() * z.real() + z.imag() * z.imag();
  };
  // A square the margin test may use: an exact zero's, or a normal double.
  const auto trusted = [](const std::complex<double>& z, double m2) {
    return m2 == 0.0 ? z == std::complex<double>{}
                     : m2 >= std::numeric_limits<double>::min() &&
                           m2 <= std::numeric_limits<double>::max();
  };
  std::size_t pivot = k;
  double best2 = square(a(k, k));
  bool best_trusted = trusted(a(k, k), best2);
  for (std::size_t r = k + 1; r < a.rows(); ++r) {
    const std::complex<double>& z = a(r, k);
    const double m2 = square(z);
    const bool m_trusted = trusted(z, m2);
    bool wins;
    if (m_trusted && m2 == 0.0) {
      wins = false;  // an exact zero never beats anything
    } else if (m_trusted && best_trusted && m2 > best2 * (1.0 + kMargin)) {
      wins = true;
    } else if (m_trusted && best_trusted && m2 < best2 * (1.0 - kMargin)) {
      wins = false;
    } else {
      wins = std::abs(z) > std::abs(a(pivot, k));
    }
    if (wins) {
      pivot = r;
      best2 = m2;
      best_trusted = m_trusted;
    }
  }
  return pivot;
}

bool finite(double v) { return std::isfinite(v); }
bool finite(const std::complex<double>& z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// Skips every product whose matrix operand is an exact zero; the header
/// comment of matrix.hpp says why that changes no bit.
template <typename T>
void lu_solve_impl(Matrix<T>& a, std::vector<T>& b) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && b.size() == n);
  if (USYS_FAULT_POINT("dense_lu.singular")) throw SingularMatrixError(0);

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t pivot = pivot_row(a, k);
    const double best = std::abs(a(pivot, k));
    if (best < 1e-300) throw SingularMatrixError(k);
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(pivot, c));
      std::swap(b[k], b[pivot]);
    }
    const T inv_pivot = T(1) / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = a(r, k) * inv_pivot;
      if (factor == T{}) continue;
      a(r, k) = T{};
      const bool full = !finite(factor);  // f*0 is NaN: keep every update
      for (std::size_t c = k + 1; c < n; ++c) {
        if (full || a(k, c) != T{}) a(r, c) -= factor * a(k, c);
      }
      b[r] -= factor * b[k];
    }
  }
  // Back substitution. After the first non-finite component, 0*x[c] is
  // NaN, so every later row takes all its terms.
  bool full = false;
  for (std::size_t i = n; i-- > 0;) {
    T sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) {
      if (full || a(i, c) != T{}) sum -= a(i, c) * b[c];
    }
    b[i] = sum / a(i, i);
    full = full || !finite(b[i]);
  }
}

}  // namespace

void lu_solve(DMatrix& a, DVector& b) { lu_solve_impl(a, b); }
void lu_solve(ZMatrix& a, ZVector& b) { lu_solve_impl(a, b); }

DVector least_squares(const DMatrix& a, const DVector& b, double damping) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  assert(b.size() == m);
  DMatrix ata(n, n);
  DVector atb(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t r = 0; r < m; ++r) s += a(r, i) * a(r, j);
      ata(i, j) = s;
    }
    double s = 0.0;
    for (std::size_t r = 0; r < m; ++r) s += a(r, i) * b[r];
    atb[i] = s;
  }
  if (damping > 0.0) {
    for (std::size_t i = 0; i < n; ++i) ata(i, i) += damping;
  }
  lu_solve(ata, atb);
  return atb;
}

}  // namespace usys
