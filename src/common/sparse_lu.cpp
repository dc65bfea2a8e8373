#include "common/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/deadline.hpp"
#include "common/fault_inject.hpp"

namespace usys {
namespace {

/// Below this magnitude a pivot counts as numerically zero (matches the
/// dense lu_solve threshold for SingularMatrixError parity).
constexpr double kAbsPivotFloor = 1e-300;

/// Refactorization guard: partial pivoting bounds |L| by 1, so a reused
/// pivot order producing multipliers beyond this limit has degraded enough
/// to warrant a fresh pivot search (KLU uses the same reciprocal, 1e-3, as
/// its refactorization pivot tolerance). Newton and timestep loops change
/// values smoothly and rarely trip this; wholesale value changes do.
constexpr double kPivotGrowthLimit = 1e3;

}  // namespace

template <typename T>
void SparseLu<T>::analyze(int n, const std::vector<int>& row_ptr,
                          const std::vector<int>& col_idx) {
  if (n < 0 || row_ptr.size() != static_cast<std::size_t>(n) + 1)
    throw std::invalid_argument("SparseLu::analyze: bad pattern dimensions");
  n_ = n;
  const std::size_t nnz = col_idx.size();

  // Column counts -> CSC pointers.
  col_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int c : col_idx) col_ptr_[static_cast<std::size_t>(c) + 1]++;
  for (int j = 0; j < n; ++j) col_ptr_[j + 1] += col_ptr_[j];

  // Fill CSC row indices and the CSR-slot -> CSC-slot mapping.
  row_idx_.assign(nnz, 0);
  csc_of_csr_.assign(nnz, 0);
  std::vector<int> next(col_ptr_.begin(), col_ptr_.end() - 1);
  for (int r = 0; r < n; ++r) {
    for (int s = row_ptr[r]; s < row_ptr[r + 1]; ++s) {
      const int c = col_idx[static_cast<std::size_t>(s)];
      const int p = next[static_cast<std::size_t>(c)]++;
      row_idx_[static_cast<std::size_t>(p)] = r;
      csc_of_csr_[static_cast<std::size_t>(s)] = p;
    }
  }
  csc_vals_.assign(nnz, T{});

  amd_order();

  factored_ = false;
  symbolic_count_ = 0;

  x_.assign(static_cast<std::size_t>(n), T{});
  xi_.assign(static_cast<std::size_t>(n), 0);
  stack_.assign(static_cast<std::size_t>(n), 0);
  pstack_.assign(static_cast<std::size_t>(n), 0);
  visited_.assign(static_cast<std::size_t>(n), 0);
}

template <typename T>
void SparseLu<T>::factor(const std::vector<T>& csr_vals) {
  if (!analyzed()) throw std::logic_error("SparseLu::factor before analyze");
  if (csr_vals.size() != csc_of_csr_.size())
    throw std::invalid_argument("SparseLu::factor: value count != pattern nonzeros");
  if (deadline_ != nullptr) deadline_->check("SparseLu::factor");
  if (USYS_FAULT_POINT("sparse_lu.singular")) throw SingularMatrixError(0);
  for (std::size_t s = 0; s < csr_vals.size(); ++s)
    csc_vals_[static_cast<std::size_t>(csc_of_csr_[s])] = csr_vals[s];
  // Row max-scaling: factor (R A) instead of A so pivot comparisons are
  // scale-free across natures and across large value drifts within a row.
  rscale_.assign(static_cast<std::size_t>(n_), 0.0);
  for (std::size_t p = 0; p < csc_vals_.size(); ++p) {
    const auto r = static_cast<std::size_t>(row_idx_[p]);
    rscale_[r] = std::max(rscale_[r], std::abs(csc_vals_[p]));
  }
  for (auto& s : rscale_) s = (s > 0.0) ? 1.0 / s : 1.0;
  for (std::size_t p = 0; p < csc_vals_.size(); ++p)
    csc_vals_[p] *= rscale_[static_cast<std::size_t>(row_idx_[p])];
  if (factored_ && refactor()) return;
  factor_full();
}

template <typename T>
std::vector<std::vector<int>> SparseLu<T>::symmetrized_adjacency() const {
  const int n = n_;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const int i = row_idx_[static_cast<std::size_t>(p)];
      if (i != j) {
        adj[static_cast<std::size_t>(i)].push_back(j);
        adj[static_cast<std::size_t>(j)].push_back(i);
      }
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

/// Approximate minimum degree on the quotient graph (Amestoy/Davis/Duff):
/// eliminating supervariable p turns it into an ELEMENT whose pattern Lp is
/// the union of p's remaining variable neighbors and the patterns of the
/// elements it absorbs; the variables in Lp then get
///
///   d(i) ~= |A_i \ Lp| + |Lp \ i| + sum_{e in E_i \ p} |Le \ Lp|
///
/// with every |Le \ Lp| computed in one sweep (the w-counter trick), so no
/// explicit fill graph is ever built. Two AMD staples ride along:
///   * supervariable detection — variables in Lp with identical pruned
///     adjacency (hashed, then compared exactly) merge into one weighted
///     supervariable and are eliminated together;
///   * mass elimination — variables whose adjacency collapses to exactly
///     {p} are ordered immediately after p (their elimination admits no
///     fill beyond Lp's).
/// Determinism: candidates live in an ordered (degree, index) set, merges
/// keep the smallest index as principal, and all adjacency lists stay
/// sorted — the same pattern yields the same permutation everywhere.
template <typename T>
void SparseLu<T>::amd_order() {
  const int n = n_;
  q_.clear();
  q_.reserve(static_cast<std::size_t>(n));
  if (n == 0) return;

  // Quotient-graph role. kAbsorbed covers both variables merged into a
  // supervariable and mass-eliminated variables: either way they are out of
  // the graph (scrubbed from or filtered out of every live adjacency) while
  // their indices are emitted through q_.
  enum : char { kLive, kElement, kAbsorbed, kDead };
  std::vector<char> state(static_cast<std::size_t>(n), kLive);
  std::vector<std::vector<int>> vlist = symmetrized_adjacency();  // variable nbrs
  std::vector<std::vector<int>> elist(static_cast<std::size_t>(n));  // element nbrs
  std::vector<std::vector<int>> epat(static_cast<std::size_t>(n));   // element patterns
  std::vector<std::vector<int>> merged(static_cast<std::size_t>(n));
  std::vector<long long> nv(static_cast<std::size_t>(n), 1);  // supervariable weight
  std::vector<long long> deg(static_cast<std::size_t>(n), 0);

  std::set<std::pair<long long, int>> degq;  // (approx degree, index): smallest first
  for (int i = 0; i < n; ++i) {
    deg[static_cast<std::size_t>(i)] =
        static_cast<long long>(vlist[static_cast<std::size_t>(i)].size());
    degq.emplace(deg[static_cast<std::size_t>(i)], i);
  }

  // Live principal-variable weight still to eliminate (degree clamp bound).
  long long live_weight = n;

  std::vector<int> in_lp(static_cast<std::size_t>(n), 0);  // Lp membership marks
  std::vector<long long> w(static_cast<std::size_t>(n), -1);  // |Le \ Lp| scratch
  std::vector<int> lp, wtouch, hash_order;
  std::vector<long long> hash(static_cast<std::size_t>(n), 0);

  const auto sorted_erase = [](std::vector<int>& v, int value) {
    const auto it = std::lower_bound(v.begin(), v.end(), value);
    if (it != v.end() && *it == value) v.erase(it);
  };
  const auto live_pattern_weight = [&](const std::vector<int>& pat) {
    long long s = 0;
    for (int v : pat)
      if (state[static_cast<std::size_t>(v)] == kLive) s += nv[static_cast<std::size_t>(v)];
    return s;
  };
  // Emits a supervariable: the principal index, then every variable merged
  // into it (depth first, in merge order) — all occupy adjacent pivotal
  // positions, which is exactly what made them indistinguishable.
  std::vector<int> emit_stack;
  const auto emit = [&](int v) {
    emit_stack.assign(1, v);
    while (!emit_stack.empty()) {
      const int u = emit_stack.back();
      emit_stack.pop_back();
      q_.push_back(u);
      const auto& m = merged[static_cast<std::size_t>(u)];
      for (auto it = m.rbegin(); it != m.rend(); ++it) emit_stack.push_back(*it);
    }
  };

  while (!degq.empty()) {
    const int p = degq.begin()->second;
    degq.erase(degq.begin());
    const auto sp = static_cast<std::size_t>(p);

    // --- form element pattern Lp (live principal variables, p excluded) ---
    lp.clear();
    in_lp[sp] = 1;
    for (int v : vlist[sp]) {
      const auto sv = static_cast<std::size_t>(v);
      if (state[sv] == kLive && !in_lp[sv]) {
        in_lp[sv] = 1;
        lp.push_back(v);
      }
    }
    for (int e : elist[sp]) {
      const auto se = static_cast<std::size_t>(e);
      if (state[se] != kElement) continue;
      for (int v : epat[se]) {
        const auto sv = static_cast<std::size_t>(v);
        if (state[sv] == kLive && !in_lp[sv]) {
          in_lp[sv] = 1;
          lp.push_back(v);
        }
      }
      // Element absorption: e's coverage is now a subset of element p's.
      state[se] = kDead;
      epat[se].clear();
      epat[se].shrink_to_fit();
    }
    std::sort(lp.begin(), lp.end());
    state[sp] = kElement;
    live_weight -= nv[sp];
    long long lp_weight = 0;
    for (int v : lp) lp_weight += nv[static_cast<std::size_t>(v)];
    vlist[sp].clear();
    vlist[sp].shrink_to_fit();
    elist[sp].clear();
    elist[sp].shrink_to_fit();
    emit(p);

    // --- w trick: w[e] = |Le \ Lp| for every element touching Lp ----------
    wtouch.clear();
    for (int i : lp) {
      for (int e : elist[static_cast<std::size_t>(i)]) {
        const auto se = static_cast<std::size_t>(e);
        if (state[se] != kElement) continue;
        if (w[se] < 0) {
          w[se] = live_pattern_weight(epat[se]);
          wtouch.push_back(e);
        }
        w[se] -= nv[static_cast<std::size_t>(i)];
      }
    }

    // --- prune adjacency and refresh approximate degrees ------------------
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      auto& vl = vlist[si];
      // Edges inside Lp (and to p) are covered by element p from now on;
      // dead/absorbed entries are dropped on the way.
      vl.erase(std::remove_if(vl.begin(), vl.end(),
                              [&](int v) {
                                const auto sv = static_cast<std::size_t>(v);
                                return state[sv] != kLive || in_lp[sv];
                              }),
               vl.end());
      auto& el = elist[si];
      el.erase(std::remove_if(el.begin(), el.end(),
                              [&](int e) {
                                return state[static_cast<std::size_t>(e)] != kElement;
                              }),
               el.end());
      el.insert(std::lower_bound(el.begin(), el.end(), p), p);

      long long d = lp_weight - nv[si];
      for (int v : vl) d += nv[static_cast<std::size_t>(v)];
      for (int e : el) {
        if (e == p) continue;
        const auto se = static_cast<std::size_t>(e);
        d += (w[se] >= 0) ? w[se] : live_pattern_weight(epat[se]);
      }
      d = std::min(d, live_weight - nv[si]);
      d = std::max<long long>(d, 0);
      degq.erase({deg[si], i});
      deg[si] = d;
      degq.emplace(d, i);
    }
    for (int e : wtouch) w[static_cast<std::size_t>(e)] = -1;

    // --- supervariable detection (hash, then exact compare) ----------------
    hash_order.clear();
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      long long h = 0;
      for (int v : vlist[si]) h += v;
      for (int e : elist[si]) h += e;
      hash[si] = h;
      hash_order.push_back(i);
    }
    for (std::size_t a = 0; a < hash_order.size(); ++a) {
      const int i = hash_order[a];
      const auto si = static_cast<std::size_t>(i);
      if (state[si] != kLive) continue;
      for (std::size_t b = a + 1; b < hash_order.size(); ++b) {
        const int j = hash_order[b];
        const auto sj = static_cast<std::size_t>(j);
        if (state[sj] != kLive || hash[si] != hash[sj]) continue;
        if (vlist[si] != vlist[sj] || elist[si] != elist[sj]) continue;
        // Indistinguishable: merge j into i (i < j keeps the principal
        // deterministic). i's weight absorbs j's, so neighbor degrees —
        // which sum nv over live entries — need j scrubbed from their lists.
        nv[si] += nv[sj];
        merged[si].push_back(j);
        state[sj] = kAbsorbed;
        degq.erase({deg[sj], j});
        for (int v : vlist[sj]) sorted_erase(vlist[static_cast<std::size_t>(v)], j);
        for (int e : elist[sj]) sorted_erase(epat[static_cast<std::size_t>(e)], j);
        vlist[sj].clear();
        vlist[sj].shrink_to_fit();
        elist[sj].clear();
        elist[sj].shrink_to_fit();
      }
    }

    // --- mass elimination: adjacency collapsed to exactly {p} --------------
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      if (state[si] != kLive) continue;
      if (vlist[si].empty() && elist[si].size() == 1 && elist[si][0] == p) {
        degq.erase({deg[si], i});
        live_weight -= nv[si];
        state[si] = kAbsorbed;
        emit(i);
        elist[si].clear();
        elist[si].shrink_to_fit();
      }
    }

    // Element p keeps the still-live part of Lp as its pattern.
    epat[sp].clear();
    for (int v : lp) {
      if (state[static_cast<std::size_t>(v)] == kLive) epat[sp].push_back(v);
      in_lp[static_cast<std::size_t>(v)] = 0;
    }
    in_lp[sp] = 0;
    if (epat[sp].empty()) state[sp] = kDead;
  }

  if (q_.size() != static_cast<std::size_t>(n))
    throw std::logic_error("SparseLu: AMD ordering dropped variables");
}

/// DFS over the partial-L graph: node i's children are the sub-diagonal
/// entries of L's column pinv_[i] (not-yet-pivotal nodes are leaves).
/// Finished nodes land in xi_[top-1 .. ] in topological order.
template <typename T>
int SparseLu<T>::dfs_reach(int start, int top) {
  int head = 0;
  stack_[0] = start;
  while (head >= 0) {
    const int i = stack_[static_cast<std::size_t>(head)];
    const int col = pinv_[static_cast<std::size_t>(i)];
    if (!visited_[static_cast<std::size_t>(i)]) {
      visited_[static_cast<std::size_t>(i)] = 1;
      pstack_[static_cast<std::size_t>(head)] = (col < 0) ? 0 : lp_[static_cast<std::size_t>(col)] + 1;
    }
    bool descended = false;
    if (col >= 0) {
      const int end = lp_[static_cast<std::size_t>(col) + 1];
      for (int p = pstack_[static_cast<std::size_t>(head)]; p < end; ++p) {
        const int child = li_[static_cast<std::size_t>(p)];
        if (!visited_[static_cast<std::size_t>(child)]) {
          pstack_[static_cast<std::size_t>(head)] = p + 1;
          stack_[static_cast<std::size_t>(++head)] = child;
          descended = true;
          break;
        }
      }
    }
    if (!descended) {
      --head;
      xi_[static_cast<std::size_t>(--top)] = i;
    }
  }
  return top;
}

template <typename T>
void SparseLu<T>::factor_full() {
  const int n = n_;
  pinv_.assign(static_cast<std::size_t>(n), -1);
  lp_.assign(static_cast<std::size_t>(n) + 1, 0);
  up_.assign(static_cast<std::size_t>(n) + 1, 0);
  li_.clear();
  lx_.clear();
  ui_.clear();
  ux_.clear();
  factored_ = false;

  for (int jj = 0; jj < n; ++jj) {
    const int j = q_[static_cast<std::size_t>(jj)];  // column eliminated at position jj
    lp_[static_cast<std::size_t>(jj)] = static_cast<int>(li_.size());
    up_[static_cast<std::size_t>(jj)] = static_cast<int>(ui_.size());

    // Reach of A(:,j) in the partial-L graph (original row space).
    int top = n;
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const int i = row_idx_[static_cast<std::size_t>(p)];
      if (!visited_[static_cast<std::size_t>(i)]) top = dfs_reach(i, top);
    }

    // Numeric sparse triangular solve x = L \ A(:,j).
    for (int p = top; p < n; ++p) x_[static_cast<std::size_t>(xi_[static_cast<std::size_t>(p)])] = T{};
    for (int p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
      x_[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])] =
          csc_vals_[static_cast<std::size_t>(p)];
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      const int col = pinv_[static_cast<std::size_t>(i)];
      if (col < 0) continue;  // not yet pivotal: stays an L candidate
      const T xv = x_[static_cast<std::size_t>(i)];
      if (xv != T{}) {
        const int end = lp_[static_cast<std::size_t>(col) + 1];
        for (int p = lp_[static_cast<std::size_t>(col)] + 1; p < end; ++p)
          x_[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)])] -=
              lx_[static_cast<std::size_t>(p)] * xv;
      }
    }

    // Harvest U entries (already-pivotal rows, topological order) and find
    // the partial pivot among the rest.
    int ipiv = -1;
    double amax = -1.0;
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      const int pos = pinv_[static_cast<std::size_t>(i)];
      if (pos >= 0) {
        ui_.push_back(pos);
        ux_.push_back(x_[static_cast<std::size_t>(i)]);
      } else {
        const double m = std::abs(x_[static_cast<std::size_t>(i)]);
        if (m > amax) {
          amax = m;
          ipiv = i;
        }
      }
    }
    if (ipiv < 0 || amax < kAbsPivotFloor) {
      // Clean scratch before reporting the singular column.
      for (int px = top; px < n; ++px) {
        const int i = xi_[static_cast<std::size_t>(px)];
        visited_[static_cast<std::size_t>(i)] = 0;
        x_[static_cast<std::size_t>(i)] = T{};
      }
      throw SingularMatrixError(static_cast<std::size_t>(j));
    }
    const T pivot = x_[static_cast<std::size_t>(ipiv)];
    ui_.push_back(jj);  // diagonal stored last within the column
    ux_.push_back(pivot);
    pinv_[static_cast<std::size_t>(ipiv)] = jj;
    li_.push_back(ipiv);  // unit diagonal of L stored first
    lx_.push_back(T(1));
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      if (pinv_[static_cast<std::size_t>(i)] < 0) {
        li_.push_back(i);
        lx_.push_back(x_[static_cast<std::size_t>(i)] / pivot);
      }
      visited_[static_cast<std::size_t>(i)] = 0;
      x_[static_cast<std::size_t>(i)] = T{};
    }
  }
  lp_[static_cast<std::size_t>(n)] = static_cast<int>(li_.size());
  up_[static_cast<std::size_t>(n)] = static_cast<int>(ui_.size());

  // Remap L's row indices from original to pivotal space; from here on the
  // whole factorization lives in pivotal coordinates.
  for (auto& i : li_) i = pinv_[static_cast<std::size_t>(i)];

  build_row_views();

  factored_ = true;
  ++symbolic_count_;
}

template <typename T>
bool SparseLu<T>::refactor_column(int jj, T* x) {
  const int j = q_[static_cast<std::size_t>(jj)];
  // Scatter A(:,j) into pivotal space. The reach of the recorded symbolic
  // factorization is a superset of A's pattern, so the clears below cover
  // every scattered slot.
  for (int p = col_ptr_[static_cast<std::size_t>(j)];
       p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
    x[pinv_[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])]] =
        csc_vals_[static_cast<std::size_t>(p)];

  // Replay the column's U entries in their recorded (topological) order.
  const int u_end = up_[static_cast<std::size_t>(jj) + 1] - 1;  // diagonal excluded
  for (int p = up_[static_cast<std::size_t>(jj)]; p < u_end; ++p) {
    const int k = ui_[static_cast<std::size_t>(p)];
    const T ukj = x[k];
    ux_[static_cast<std::size_t>(p)] = ukj;
    x[k] = T{};
    if (ukj != T{}) {
      const int end = lp_[static_cast<std::size_t>(k) + 1];
      for (int q = lp_[static_cast<std::size_t>(k)] + 1; q < end; ++q)
        x[li_[static_cast<std::size_t>(q)]] -= lx_[static_cast<std::size_t>(q)] * ukj;
    }
  }

  const T pivot = x[jj];
  x[jj] = T{};
  const double apiv = std::abs(pivot);
  if (apiv < kAbsPivotFloor)
    return false;  // pivot order no longer viable; re-run full pivoting
  ux_[static_cast<std::size_t>(u_end)] = pivot;
  const int l_end = lp_[static_cast<std::size_t>(jj) + 1];
  for (int q = lp_[static_cast<std::size_t>(jj)] + 1; q < l_end; ++q) {
    const int i = li_[static_cast<std::size_t>(q)];
    const T v = x[i];
    x[i] = T{};
    if (std::abs(v) > kPivotGrowthLimit * apiv)
      return false;  // multiplier blow-up: pivot degraded
    lx_[static_cast<std::size_t>(q)] = v / pivot;
  }
  return true;
}

template <typename T>
bool SparseLu<T>::refactor() {
  const int n = n_;
  T* const x = x_.data();
  for (int jj = 0; jj < n; ++jj) {
    if (!refactor_column(jj, x)) {
      x_.assign(static_cast<std::size_t>(n), T{});
      return false;
    }
  }
  return true;
}

/// Transposes the recorded L/U patterns into row-major views (index maps
/// into lx_/ux_, so refactorizations keep them valid).
template <typename T>
void SparseLu<T>::build_row_views() {
  const int n = n_;
  const auto sn = static_cast<std::size_t>(n);

  // L^T rows, skipping each column's leading unit diagonal. Columns are
  // visited in ascending order, so every row's entries come out sorted by
  // column — the fixed per-row gather order the solve accumulates in.
  lt_ptr_.assign(sn + 1, 0);
  for (int j = 0; j < n; ++j)
    for (int p = lp_[static_cast<std::size_t>(j)] + 1;
         p < lp_[static_cast<std::size_t>(j) + 1]; ++p)
      ++lt_ptr_[static_cast<std::size_t>(li_[static_cast<std::size_t>(p)]) + 1];
  for (std::size_t i = 0; i < sn; ++i) lt_ptr_[i + 1] += lt_ptr_[i];
  lt_idx_.assign(static_cast<std::size_t>(lt_ptr_[sn]), 0);
  lt_map_.assign(static_cast<std::size_t>(lt_ptr_[sn]), 0);
  {
    std::vector<int> cur(lt_ptr_.begin(), lt_ptr_.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int p = lp_[static_cast<std::size_t>(j)] + 1;
           p < lp_[static_cast<std::size_t>(j) + 1]; ++p) {
        const auto r = static_cast<std::size_t>(li_[static_cast<std::size_t>(p)]);
        const auto slot = static_cast<std::size_t>(cur[r]++);
        lt_idx_[slot] = j;
        lt_map_[slot] = p;
      }
    }
  }

  // U^T rows, skipping each column's trailing diagonal.
  ut_ptr_.assign(sn + 1, 0);
  for (int j = 0; j < n; ++j)
    for (int p = up_[static_cast<std::size_t>(j)];
         p < up_[static_cast<std::size_t>(j) + 1] - 1; ++p)
      ++ut_ptr_[static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)]) + 1];
  for (std::size_t i = 0; i < sn; ++i) ut_ptr_[i + 1] += ut_ptr_[i];
  ut_idx_.assign(static_cast<std::size_t>(ut_ptr_[sn]), 0);
  ut_map_.assign(static_cast<std::size_t>(ut_ptr_[sn]), 0);
  {
    std::vector<int> cur(ut_ptr_.begin(), ut_ptr_.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int p = up_[static_cast<std::size_t>(j)];
           p < up_[static_cast<std::size_t>(j) + 1] - 1; ++p) {
        const auto r = static_cast<std::size_t>(ui_[static_cast<std::size_t>(p)]);
        const auto slot = static_cast<std::size_t>(cur[r]++);
        ut_idx_[slot] = j;
        ut_map_[slot] = p;
      }
    }
  }
}

template <typename T>
void SparseLu<T>::solve(std::vector<T>& b) const {
  if (!factored_) throw std::logic_error("SparseLu::solve before factor");
  if (b.size() != static_cast<std::size_t>(n_))
    throw std::invalid_argument("SparseLu::solve: rhs size mismatch");
  if (deadline_ != nullptr) deadline_->check("SparseLu::solve");
  const int n = n_;
  tmp_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    tmp_[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])] =
        b[static_cast<std::size_t>(i)] * rscale_[static_cast<std::size_t>(i)];

  // Forward: L y = P b. Row-gather over L^T (unit diagonal implicit):
  // y_j = b_j - sum_{k<j} L(j,k) y_k, accumulated in ascending k.
  T* const t = tmp_.data();
  for (int j = 0; j < n; ++j) {
    T acc = t[j];
    for (int p = lt_ptr_[static_cast<std::size_t>(j)];
         p < lt_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
      acc -= lx_[static_cast<std::size_t>(lt_map_[static_cast<std::size_t>(p)])] *
             t[lt_idx_[static_cast<std::size_t>(p)]];
    t[j] = acc;
  }

  // Backward: U x = y. Row-gather over U^T, then divide by the pivot:
  // x_j = (y_j - sum_{k>j} U(j,k) x_k) / U(j,j).
  for (int j = n; j-- > 0;) {
    T acc = t[j];
    for (int p = ut_ptr_[static_cast<std::size_t>(j)];
         p < ut_ptr_[static_cast<std::size_t>(j) + 1]; ++p)
      acc -= ux_[static_cast<std::size_t>(ut_map_[static_cast<std::size_t>(p)])] *
             t[ut_idx_[static_cast<std::size_t>(p)]];
    t[j] = acc / ux_[static_cast<std::size_t>(up_[static_cast<std::size_t>(j) + 1]) - 1];
  }

  // Undo the fill-reducing column permutation: position j solved unknown q_[j].
  for (int j = 0; j < n; ++j)
    b[static_cast<std::size_t>(q_[static_cast<std::size_t>(j)])] =
        tmp_[static_cast<std::size_t>(j)];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace usys
