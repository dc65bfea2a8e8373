#include "spice/mna.hpp"

#include <algorithm>
#include <string>

namespace usys::spice {

MnaPattern::MnaPattern(const Circuit& circuit) {
  if (!circuit.bound()) throw CircuitError("MnaPattern: circuit not bound");
  n_ = circuit.unknown_count();
  const auto n = static_cast<std::size_t>(n_);
  const auto& devices = circuit.devices();

  footprints_.resize(devices.size());
  std::vector<std::vector<int>> cols(n);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::vector<int> u;
    devices[d]->stamp_footprint(u);
    // Ground pins (-1) stamp nowhere; drop them along with duplicates.
    u.erase(std::remove_if(u.begin(), u.end(), [this](int i) { return i < 0 || i >= n_; }),
            u.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    for (int r : u) {
      auto& row = cols[static_cast<std::size_t>(r)];
      row.insert(row.end(), u.begin(), u.end());
    }
    footprints_[d].unknowns = std::move(u);
  }

  // Always include the full diagonal: gmin lands on node rows, and a
  // structurally present diagonal gives the LU pivoting room on branch rows.
  for (std::size_t i = 0; i < n; ++i) cols[i].push_back(static_cast<int>(i));

  row_ptr_.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    auto& row = cols[r];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    row_ptr_[r + 1] = row_ptr_[r] + static_cast<int>(row.size());
  }
  col_idx_.reserve(static_cast<std::size_t>(row_ptr_[n]));
  for (std::size_t r = 0; r < n; ++r)
    col_idx_.insert(col_idx_.end(), cols[r].begin(), cols[r].end());

  diag_slot_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    diag_slot_[i] = slot(static_cast<int>(i), static_cast<int>(i));

  // Compile each device's k x k slot table; every pair is present by
  // construction.
  for (auto& fp : footprints_) {
    const auto k = fp.unknowns.size();
    fp.slots.resize(k * k);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        fp.slots[i * k + j] = slot(fp.unknowns[i], fp.unknowns[j]);
  }
}

int MnaPattern::slot(int r, int c) const noexcept {
  const auto first = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(r)];
  const auto last = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return -1;
  return static_cast<int>(it - col_idx_.begin());
}

MnaAssembler::MnaAssembler(Circuit& circuit, const MnaPattern& pattern)
    : circuit_(circuit), pattern_(pattern) {
  jf_vals_.assign(pattern_.nonzeros(), 0.0);
  jq_vals_.assign(pattern_.nonzeros(), 0.0);
  local_of_.assign(static_cast<std::size_t>(pattern_.size()), -1);
  sink_.jf_vals = jf_vals_.data();
  sink_.jq_vals = jq_vals_.data();
}

void MnaAssembler::assemble(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                            DVector& q) {
  const auto n = static_cast<std::size_t>(pattern_.size());
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  std::fill(jf_vals_.begin(), jf_vals_.end(), 0.0);
  std::fill(jq_vals_.begin(), jq_vals_.end(), 0.0);

  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = nullptr;
  ctx.jq = nullptr;
  ctx.sparse = &sink_;
  sink_.local_of = local_of_.data();

  const auto& devices = circuit_.devices();
  const auto& footprints = pattern_.footprints();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& fp = footprints[d];
    for (std::size_t i = 0; i < fp.unknowns.size(); ++i)
      local_of_[static_cast<std::size_t>(fp.unknowns[i])] = static_cast<int>(i);
    sink_.slots = fp.slots.data();
    sink_.k = static_cast<int>(fp.unknowns.size());
    sink_.missed = 0;
    try {
      devices[d]->evaluate(ctx);
    } catch (...) {
      // Keep the scratch map clean even when a device throws: a later
      // assemble() on this assembler must not see stale local indices.
      for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
      throw;
    }
    for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
    if (sink_.missed > 0) {
      throw CircuitError("device '" + devices[d]->name() + "' stamped " +
                         std::to_string(sink_.missed) +
                         " Jacobian entries outside its stamp_footprint()");
    }
  }
}

}  // namespace usys::spice
