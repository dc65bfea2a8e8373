// Sparse pattern-cached MNA assembly.
//
// The stamp structure of a bound circuit is fixed: every device touches the
// same (row, col) Jacobian entries on every Newton iteration and timestep.
// This layer exploits that once, up front:
//
//   * MnaPattern — at bind time each device registers its stamp footprint
//     (Device::stamp_footprint, which every device must implement); the
//     union of all footprint x footprint blocks plus the gmin diagonal is
//     compiled into a CSR layout, and each device gets a precomputed
//     local-slot table mapping its (row, col) pairs to flat value indices.
//   * MnaAssembler — per-iteration assembly is then pure scatter writes
//     into two flat value arrays (Jf, Jq): no n x n zero-fill, no
//     reallocation, no search on the hot path. The values arrays share the
//     pattern's CSR layout, so they feed SparseLu (common/sparse_lu.hpp)
//     directly — and the combined Newton matrix Jf + a0*Jq is a single
//     O(nnz) vector fuse.
//
// The footprint is the whole contract: a device's Jacobian stamps must land
// inside its own footprint block. A stamp outside it is not looked up in
// the union pattern; the assembler throws a CircuitError naming the device.
#pragma once

#include <vector>

#include "spice/circuit.hpp"

namespace usys::spice {

/// The union stamp pattern of a bound circuit, compiled to CSR, with
/// per-device precomputed value-slot tables. Build via Circuit::mna_pattern()
/// (cached) rather than constructing directly.
class MnaPattern {
 public:
  /// Requires a bound circuit (throws CircuitError otherwise).
  explicit MnaPattern(const Circuit& circuit);

  /// Always true: every device declares a footprint. perfbench's kernel
  /// probe is the last caller; ROADMAP item 2 removes it.
  bool complete() const noexcept { return true; }
  int size() const noexcept { return n_; }
  std::size_t nonzeros() const noexcept { return col_idx_.size(); }
  const std::vector<int>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<int>& col_idx() const noexcept { return col_idx_; }

  /// Flat value slot of entry (r, c); -1 when outside the pattern.
  int slot(int r, int c) const noexcept;
  /// Flat value slot of diagonal entry (i, i) — always present.
  int diag_slot(int i) const noexcept { return diag_slot_[static_cast<std::size_t>(i)]; }

  /// One entry per circuit device, in Circuit::devices() order.
  struct DeviceFootprint {
    std::vector<int> unknowns;  ///< sorted + deduped, ground filtered out
    std::vector<int> slots;     ///< k*k table: local (row, col) -> flat slot
  };
  const std::vector<DeviceFootprint>& footprints() const noexcept { return footprints_; }

 private:
  int n_ = 0;
  std::vector<int> row_ptr_, col_idx_, diag_slot_;
  std::vector<DeviceFootprint> footprints_;
};

/// Per-iteration sparse stamp pass over all devices. Owns the flat Jf/Jq
/// value arrays (CSR layout of the pattern) and the scatter workspace; all
/// storage is allocated once at construction.
class MnaAssembler {
 public:
  /// The pattern must outlive the assembler.
  MnaAssembler(Circuit& circuit, const MnaPattern& pattern);

  /// One stamp pass at iterate `x`: fills f, q and the flat Jf/Jq values.
  /// With `with_jq` false (DC Newton) Jq stamps are discarded, still
  /// footprint-checked, and jq_values() keeps its previous contents.
  /// Does NOT apply gmin (that is solver policy — see NewtonSolver).
  /// Throws CircuitError, naming the device, when a device stamps outside
  /// its own footprint.
  void assemble(const EvalCtx& ctx_proto, const DVector& x, DVector& f, DVector& q,
                bool with_jq = true);

  const MnaPattern& pattern() const noexcept { return pattern_; }
  const std::vector<double>& jf_values() const noexcept { return jf_vals_; }
  const std::vector<double>& jq_values() const noexcept { return jq_vals_; }

  /// Adds to the Jf diagonal of unknown `i` (the solver's gmin hook).
  void add_diag_jf(int i, double v) noexcept {
    jf_vals_[static_cast<std::size_t>(pattern_.diag_slot(i))] += v;
  }

 private:
  Circuit& circuit_;
  const MnaPattern& pattern_;
  std::vector<double> jf_vals_, jq_vals_;
  std::vector<int> local_of_;  ///< global unknown -> active device local idx
  SparseStampSink sink_;
};

}  // namespace usys::spice
