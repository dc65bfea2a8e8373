// Small dense linear-algebra kernel used by the MNA solver and fitting code.
//
// Circuits below NewtonOptions::sparse_threshold unknowns are small enough
// that a dense row-major matrix with LU + partial pivoting is the right
// tool; larger circuits and the FEM fields use common/sparse_lu.hpp.
// Complex variants back the AC analysis.
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
