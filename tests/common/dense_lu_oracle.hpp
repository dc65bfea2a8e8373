// Test-only reference for judging the dense lu_solve: LU with partial
// pivoting that runs every multiply-subtract, exact zeros included. The
// pivot is the largest std::abs in the column, the first row on ties — the
// real kernel's search, and the search the complex kernel's squared-modulus
// shortcut must reproduce. Elimination and back substitution are the
// library kernel as it was before it skipped exact zeros, so its factors
// and solution are the bits lu_solve must match.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/matrix.hpp"

namespace usys::test {

template <typename T>
void lu_solve_oracle(Matrix<T>& a, std::vector<T>& b) {
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
    const T inv_pivot = T(1) / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = a(r, k) * inv_pivot;
      if (factor == T{}) continue;
      a(r, k) = T{};
      for (std::size_t c = k + 1; c < n; ++c) a(r, c) -= factor * a(k, c);
      b[r] -= factor * b[k];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    T sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) sum -= a(i, c) * b[c];
    b[i] = sum / a(i, i);
  }
}

}  // namespace usys::test
