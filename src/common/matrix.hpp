// Small dense linear-algebra kernel used by the MNA solver and fitting code.
//
// Circuits below NewtonOptions::sparse_threshold unknowns are small enough
// that a dense row-major matrix with LU + partial pivoting is the right
// tool; larger circuits and the FEM fields use common/sparse_lu.hpp.
// Complex variants back the AC analysis.
//
// lu_solve skips exact zeros and is bit-identical to the kernel that does
// not. Elimination skips `a(r,c) -= f*a(k,c)` where the pivot-row entry
// a(k,c) is exactly zero; back substitution skips `sum -= U(i,c)*x[c]`
// where U(i,c) is exactly zero. Why that changes no bit: every matrix that
// reaches the kernel is built by `+=` onto a +0.0 fill (stamp_dense, the
// `jf + a0*jq` Newton combine, the AC `jf + jw*jq` combine, the normal
// equations of least_squares). Under round-to-nearest `x+y` is -0 only when
// both operands are -0, and `x-y` only when x is -0 and y is +0, so no
// entry is -0, before or during elimination. For a finite f, f*(+-0) is
// +-0, and `x - (+-0)` is x for every x that is not -0: the skipped update
// was a no-op. Back substitution is the same argument on the right-hand
// side, which stays free of -0 if it starts free of it. Two guards keep
// infinities and NaNs exact: a non-finite factor takes its full row, and so
// does every back-substitution row after the first non-finite solution
// component, since 0*inf and 0*NaN are NaN. Pivot choice and the
// SingularMatrixError row are untouched.
//
// One caller does pass -0 in: the Newton right-hand side dx = -resid is -0
// wherever the residual is +0. Then only the sign of an exactly-zero dx
// can differ from the full kernel's, and `x += dx` cannot see it, because
// the iterate never holds -0 (DC starts from +0, and both transient
// predictors keep +0).
#pragma once

#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace usys {

/// Dense row-major matrix of T (double or std::complex<double>).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  T& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Sets every entry to `value` (used to reset the Jacobian between Newton
  /// iterations without reallocating).
  void fill(T value) {
    for (auto& x : data_) x = value;
  }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  const std::vector<T>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using DMatrix = Matrix<double>;
using ZMatrix = Matrix<std::complex<double>>;
using DVector = std::vector<double>;
using ZVector = std::vector<std::complex<double>>;

/// Thrown when a linear solve encounters a (numerically) singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t pivot_row)
      : std::runtime_error("singular matrix at pivot row " + std::to_string(pivot_row)),
        pivot_row_(pivot_row) {}
  std::size_t pivot_row() const noexcept { return pivot_row_; }

 private:
  std::size_t pivot_row_;
};

/// In-place LU factorization with partial pivoting; solves A x = b.
/// A and b are overwritten; on return b holds x. Throws SingularMatrixError.
void lu_solve(DMatrix& a, DVector& b);
void lu_solve(ZMatrix& a, ZVector& b);

/// Least-squares solve min ||A x - b||_2 via normal equations with
/// Tikhonov damping (used by the rational-fit code where A is tall).
DVector least_squares(const DMatrix& a, const DVector& b, double damping = 0.0);

}  // namespace usys
