// General (non-SPD) sparse LU: Gilbert–Peierls left-looking factorization
// with partial pivoting, plus pattern-reusing numeric refactorization and
// row-gather triangular solves.
//
// Built for Newton / transient loops where the matrix PATTERN is fixed while
// the VALUES change every iteration:
//   * analyze()  — once per pattern: records the CSR layout, the CSR-to-CSC
//     slot mapping, and a fill-reducing column order (approximate minimum
//     degree). The ordering is fully deterministic: every degree tie breaks
//     on the smallest index.
//   * factor()   — the first call runs the full pivoting factorization and
//     records the pivot order and the L/U patterns (the "symbolic"
//     factorization); later calls replay those patterns as pure numeric
//     refactorizations (no search, no allocation) and fall back to a fresh
//     pivoting factorization only if a reused pivot degrades.
//   * solve()    — forward/back substitution. Each unknown is a per-row
//     GATHER over the transposed factors, accumulated in a fixed
//     (ascending column) order.
//
// It is the repository's one sparse solver: the unsymmetric MNA systems of
// the circuit solver (real for DC/transient, complex for AC) and the FEM
// electrostatic stiffness systems (fem/electrostatics.cpp, one analyze +
// factor + solve per field) both go through it.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "common/matrix.hpp"  // SingularMatrixError

namespace usys {

class Deadline;

template <typename T>
class SparseLu {
 public:
  /// Registers the (square, n x n) pattern in CSR form. Column indices must
  /// be sorted and unique within each row. Also computes a fill-reducing
  /// column elimination order on the symmetrized pattern — essential for
  /// MNA systems, whose branch unknowns sit far from their nodes in the
  /// natural layout. Resets any previous factorization and the symbolic
  /// counter. The ordering is deterministic: the same pattern always
  /// produces the same permutation, on any platform.
  void analyze(int n, const std::vector<int>& row_ptr, const std::vector<int>& col_idx);

  bool analyzed() const noexcept { return n_ >= 0; }
  int size() const noexcept { return n_ < 0 ? 0 : n_; }
  std::size_t nonzeros() const noexcept { return csc_of_csr_.size(); }

  /// The fill-reducing column elimination order computed by analyze():
  /// pivotal position j eliminates column ordering()[j]. Always a valid
  /// permutation of [0, n).
  const std::vector<int>& ordering() const noexcept { return q_; }

  /// Numeric factorization of values laid out per the CSR pattern given to
  /// analyze(). Rows are max-scaled first (MNA systems mix natures whose
  /// magnitudes differ by many orders; scaling keeps pivot viability — and
  /// the refactorization degradation check — scale-free). Throws
  /// SingularMatrixError when no acceptable pivot exists.
  void factor(const std::vector<T>& csr_vals);

  bool factored() const noexcept { return factored_; }

  /// Total stored entries of L + U (both diagonals included) after factor();
  /// 0 before. factor_nonzeros() - nonzeros() is the fill-in the ordering
  /// admitted — the quality number bench_solver_scaling tracks.
  std::size_t factor_nonzeros() const noexcept {
    return factored_ ? li_.size() + ui_.size() : 0;
  }

  /// Forgets the recorded pivot order (keeps the analyzed pattern), so the
  /// next factor() runs a fresh pivot-searching factorization. Callers use
  /// this at analysis-phase boundaries where the matrix values change
  /// regime (e.g. DC -> transient) and a stale pivot order would either
  /// degrade or make results depend on solver history.
  void invalidate_pivot_order() noexcept { factored_ = false; }

  /// Solves A x = b in place (b holds x on return). Requires factor().
  void solve(std::vector<T>& b) const;

  /// Borrows a deadline (non-owning; null = none): factor() and solve()
  /// check it at dispatch and throw DeadlineError once it expires, so a
  /// budgeted Newton loop can never sit inside an unbounded factorization
  /// chain. The per-call check is one clock read — negligible against the
  /// factorization itself. The caller must clear (or outlive) the pointer.
  void set_deadline(const Deadline* deadline) noexcept { deadline_ = deadline; }

  /// Number of full (pivot-searching) factorizations since analyze().
  /// Steady-state Newton/transient/AC loops should hold this at 1.
  int symbolic_factorizations() const noexcept { return symbolic_count_; }

 private:
  void factor_full();
  bool refactor();  ///< false = reused pivot degraded; caller re-runs full
  /// One column of the refactorization replay, scattering through `x`
  /// (length n, all-zero on entry, all-zero again on a true return). A
  /// false return means the reused pivot degraded; `x` is left dirty and
  /// the caller clears it wholesale.
  bool refactor_column(int jj, T* x);
  int dfs_reach(int start, int top);
  void amd_order();
  /// Symmetrized (pattern + pattern^T) adjacency, sorted, diagonal-free.
  std::vector<std::vector<int>> symmetrized_adjacency() const;
  /// Builds the transposed-factor (row-gather) views; runs once per
  /// symbolic factorization.
  void build_row_views();

  int n_ = -1;

  // Pattern: CSC copy of the analyze()d CSR pattern plus the slot mapping.
  std::vector<int> col_ptr_, row_idx_;
  std::vector<int> csc_of_csr_;  ///< CSR slot -> CSC slot
  std::vector<T> csc_vals_;
  std::vector<int> q_;  ///< fill-reducing column order: pivotal j eliminates column q_[j]
  std::vector<double> rscale_;  ///< per-row 1/max applied to the factored values

  // Factorization (row indices in pivotal space once factored_ is set).
  // L is unit-lower with the diagonal stored explicitly as each column's
  // first entry; U stores each column's diagonal (the pivot) last.
  std::vector<int> pinv_;      ///< original row -> pivotal position
  std::vector<int> lp_, li_;   ///< L: col ptr / row idx
  std::vector<T> lx_;
  std::vector<int> up_, ui_;   ///< U: col ptr / row idx
  std::vector<T> ux_;
  bool factored_ = false;
  int symbolic_count_ = 0;

  // Row-gather solve machinery, rebuilt per symbolic factorization. The
  // transposed views index back into lx_/ux_ (via *_map_), so numeric
  // refactorizations keep them valid for free.
  std::vector<int> lt_ptr_, lt_idx_, lt_map_;  ///< L^T rows (diagonal dropped)
  std::vector<int> ut_ptr_, ut_idx_, ut_map_;  ///< U^T rows (diagonal dropped)

  const Deadline* deadline_ = nullptr;  ///< non-owning; checked at dispatch

  // Scratch reused across factorizations/solves (no per-iteration allocs).
  std::vector<T> x_;
  std::vector<int> xi_, stack_, pstack_;
  std::vector<char> visited_;
  mutable std::vector<T> tmp_;
};

using DSparseLu = SparseLu<double>;
using ZSparseLu = SparseLu<std::complex<double>>;

}  // namespace usys
