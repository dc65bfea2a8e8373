// Plain union-find (disjoint-set forest) with path halving, used by the
// lint pass's connectivity rules (spice/lint.cpp: ground reachability, DC
// paths, V-source loop detection).
//
// Deliberately minimal: no union-by-rank. unite(a, b) roots a under b, so
// component roots depend on the call order — lint iterates edges in a
// fixed order, which keeps every derived result deterministic.
#pragma once

#include <cstddef>
#include <vector>

namespace usys {

class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent_[static_cast<std::size_t>(i)] = i;
  }

  int find(int x) noexcept {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  /// Returns false when the two were already connected.
  bool unite(int a, int b) noexcept {
    const int ra = find(a);
    const int rb = find(b);
    if (ra == rb) return false;
    parent_[static_cast<std::size_t>(ra)] = rb;
    return true;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace usys
