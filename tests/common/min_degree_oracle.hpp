// Test-only reference for judging SparseLu's AMD ordering: an exact
// minimum-degree ordering on the explicit elimination graph, and the
// symbolic fill any elimination order admits on a symmetric pattern.
// Quadratic and set-based — fine for the few-hundred-unknown patterns the
// fill-quality tests use, and simple enough to trust as a baseline.
#pragma once

#include <cstddef>
#include <set>
#include <utility>
#include <vector>

namespace usys::test {

/// Symmetrized (pattern + pattern^T), diagonal-free adjacency of an
/// n x n CSR pattern.
inline std::vector<std::set<int>> symmetrized_graph(int n, const std::vector<int>& row_ptr,
                                                    const std::vector<int>& col_idx) {
  std::vector<std::set<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = col_idx[static_cast<std::size_t>(k)];
      if (c == r) continue;
      adj[static_cast<std::size_t>(r)].insert(c);
      adj[static_cast<std::size_t>(c)].insert(r);
    }
  }
  return adj;
}

/// Eliminates `v` from the graph: its neighbours become a clique. Returns
/// the number of neighbours it had (its column's off-diagonal count in L).
inline std::size_t eliminate(std::vector<std::set<int>>& g, int v) {
  const std::set<int> nbrs = std::move(g[static_cast<std::size_t>(v)]);
  g[static_cast<std::size_t>(v)].clear();
  for (int a : nbrs) {
    auto& ga = g[static_cast<std::size_t>(a)];
    ga.erase(v);
    for (int b : nbrs)
      if (b != a) ga.insert(b);
  }
  return nbrs.size();
}

/// Strictly-lower nonzeros of the symbolic Cholesky factor of the pattern
/// when eliminated in `order` (original entries plus fill).
inline std::size_t elimination_fill(std::vector<std::set<int>> g, const std::vector<int>& order) {
  std::size_t fill = 0;
  for (int v : order) fill += eliminate(g, v);
  return fill;
}

/// Exact minimum degree: always eliminates the uneliminated vertex of
/// smallest current degree, ties on the smallest index.
inline std::vector<int> min_degree_order(std::vector<std::set<int>> g) {
  const int n = static_cast<int>(g.size());
  std::vector<char> done(g.size(), 0);
  std::vector<int> order;
  order.reserve(g.size());
  for (int step = 0; step < n; ++step) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (done[static_cast<std::size_t>(v)]) continue;
      if (best < 0 ||
          g[static_cast<std::size_t>(v)].size() < g[static_cast<std::size_t>(best)].size())
        best = v;
    }
    done[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);
    eliminate(g, best);
  }
  return order;
}

}  // namespace usys::test
