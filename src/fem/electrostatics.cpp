#include "fem/electrostatics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/sparse_lu.hpp"

namespace usys::fem {
namespace {

double region_eps(const ElectrostaticProblem& p, int region) {
  const double er = (region >= 0 && region < static_cast<int>(p.eps_r.size()))
                        ? p.eps_r[static_cast<std::size_t>(region)]
                        : 1.0;
  return p.eps0 * er;
}

}  // namespace

ElectrostaticSolution solve_electrostatics(const ElectrostaticProblem& problem) {
  if (problem.mesh == nullptr)
    throw std::invalid_argument("solve_electrostatics: null mesh");
  const Mesh& mesh = *problem.mesh;
  const int n = mesh.node_count();

  // Electrode nodes take their Dirichlet potential; the free nodes are
  // numbered 0..n_free-1 as the unknowns of K (-1 = electrode).
  ElectrostaticSolution sol;
  sol.phi.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<int> unknown(static_cast<std::size_t>(n), -1);
  int n_free = 0;
  int n_bottom = 0;
  int n_top = 0;
  for (int i = 0; i < n; ++i) {
    switch (mesh.tags()[static_cast<std::size_t>(i)]) {
      case BoundaryTag::bottom:
        sol.phi[static_cast<std::size_t>(i)] = problem.v_bottom;
        ++n_bottom;
        break;
      case BoundaryTag::top:
        sol.phi[static_cast<std::size_t>(i)] = problem.v_top;
        ++n_top;
        break;
      default:
        unknown[static_cast<std::size_t>(i)] = n_free++;
        break;
    }
  }
  if (n_bottom == 0 || n_top == 0)
    throw std::invalid_argument("solve_electrostatics: both electrodes need nodes");

  // Assemble K over the free nodes; the electrode potentials move to the RHS.
  struct Entry {
    int row, col;
    double val;
  };
  std::vector<Entry> entries;
  entries.reserve(static_cast<std::size_t>(mesh.element_count()) * 9);
  std::vector<double> rhs(static_cast<std::size_t>(n_free), 0.0);

  for (int e = 0; e < mesh.element_count(); ++e) {
    const Triangle& t = mesh.triangles()[static_cast<std::size_t>(e)];
    const double twoa = mesh.twice_area(e);
    if (twoa <= 0.0) throw std::invalid_argument("solve_electrostatics: degenerate element");
    const double eps = region_eps(problem, t.region);
    const Point& p0 = mesh.points()[static_cast<std::size_t>(t.n[0])];
    const Point& p1 = mesh.points()[static_cast<std::size_t>(t.n[1])];
    const Point& p2 = mesh.points()[static_cast<std::size_t>(t.n[2])];
    const double b[3] = {p1.y - p2.y, p2.y - p0.y, p0.y - p1.y};
    const double c[3] = {p2.x - p1.x, p0.x - p2.x, p1.x - p0.x};
    const double scale = eps / (2.0 * twoa);
    for (int i = 0; i < 3; ++i) {
      const int ui = unknown[static_cast<std::size_t>(t.n[i])];
      if (ui < 0) continue;
      for (int j = 0; j < 3; ++j) {
        const double kij = scale * (b[i] * b[j] + c[i] * c[j]);
        const int uj = unknown[static_cast<std::size_t>(t.n[j])];
        if (uj < 0) {
          rhs[static_cast<std::size_t>(ui)] -= kij * sol.phi[static_cast<std::size_t>(t.n[j])];
        } else {
          entries.push_back({ui, uj, kij});
        }
      }
    }
  }

  // CSR with sorted, unique columns per row, as SparseLu::analyze requires.
  // The stable sort sums duplicates in assembly order.
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<int> row_ptr(static_cast<std::size_t>(n_free) + 1, 0);
  std::vector<int> col_idx;
  std::vector<double> vals;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const Entry& en = entries[k];
    if (k > 0 && en.row == entries[k - 1].row && en.col == entries[k - 1].col) {
      vals.back() += en.val;
      continue;
    }
    col_idx.push_back(en.col);
    vals.push_back(en.val);
    ++row_ptr[static_cast<std::size_t>(en.row) + 1];
  }
  for (int i = 0; i < n_free; ++i)
    row_ptr[static_cast<std::size_t>(i) + 1] += row_ptr[static_cast<std::size_t>(i)];

  DSparseLu lu;
  lu.analyze(n_free, row_ptr, col_idx);
  lu.factor(vals);
  lu.solve(rhs);  // rhs now holds the free-node potentials
  for (int i = 0; i < n; ++i) {
    const int u = unknown[static_cast<std::size_t>(i)];
    if (u >= 0) sol.phi[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(u)];
  }

  // Element fields: E = -grad(phi), constant per P1 element.
  sol.ex.assign(static_cast<std::size_t>(mesh.element_count()), 0.0);
  sol.ey.assign(static_cast<std::size_t>(mesh.element_count()), 0.0);
  for (int e = 0; e < mesh.element_count(); ++e) {
    const Triangle& t = mesh.triangles()[static_cast<std::size_t>(e)];
    const double twoa = mesh.twice_area(e);
    const Point& p0 = mesh.points()[static_cast<std::size_t>(t.n[0])];
    const Point& p1 = mesh.points()[static_cast<std::size_t>(t.n[1])];
    const Point& p2 = mesh.points()[static_cast<std::size_t>(t.n[2])];
    const double b[3] = {p1.y - p2.y, p2.y - p0.y, p0.y - p1.y};
    const double c[3] = {p2.x - p1.x, p0.x - p2.x, p1.x - p0.x};
    double gx = 0.0;
    double gy = 0.0;
    for (int i = 0; i < 3; ++i) {
      const double u = sol.phi[static_cast<std::size_t>(t.n[i])];
      gx += b[i] * u;
      gy += c[i] * u;
    }
    sol.ex[static_cast<std::size_t>(e)] = -gx / twoa;
    sol.ey[static_cast<std::size_t>(e)] = -gy / twoa;
  }
  return sol;
}

double field_energy(const ElectrostaticProblem& p, const ElectrostaticSolution& s) {
  const Mesh& mesh = *p.mesh;
  double w = 0.0;
  for (int e = 0; e < mesh.element_count(); ++e) {
    const double eps = region_eps(p, mesh.triangles()[static_cast<std::size_t>(e)].region);
    const double e2 = s.ex[static_cast<std::size_t>(e)] * s.ex[static_cast<std::size_t>(e)] +
                      s.ey[static_cast<std::size_t>(e)] * s.ey[static_cast<std::size_t>(e)];
    w += 0.5 * eps * e2 * 0.5 * mesh.twice_area(e);
  }
  return w;
}

double capacitance_per_depth(const ElectrostaticProblem& p, const ElectrostaticSolution& s) {
  const double dv = p.v_bottom - p.v_top;
  if (dv == 0.0) throw std::invalid_argument("capacitance: zero electrode voltage");
  return 2.0 * field_energy(p, s) / (dv * dv);
}

double maxwell_force_per_depth(const ElectrostaticProblem& p,
                               const ElectrostaticSolution& s, BoundaryTag tag) {
  // Integrate the Maxwell stress over the electrode: for each boundary edge
  // on `tag`, evaluate T*n in the adjacent element. The enclosing-surface
  // normal points from the field region into the conductor: +y for the top
  // electrode... the *outward* normal of the surface wrapped around the
  // conductor points back into the field, i.e. -y for top, +y for bottom.
  const Mesh& mesh = *p.mesh;
  const double ny = (tag == BoundaryTag::top) ? -1.0 : +1.0;

  double fy = 0.0;
  for (int e = 0; e < mesh.element_count(); ++e) {
    const Triangle& t = mesh.triangles()[static_cast<std::size_t>(e)];
    // Find an element edge with both endpoints on the electrode.
    for (int k = 0; k < 3; ++k) {
      const int n1 = t.n[k];
      const int n2 = t.n[(k + 1) % 3];
      if (mesh.tags()[static_cast<std::size_t>(n1)] != tag ||
          mesh.tags()[static_cast<std::size_t>(n2)] != tag)
        continue;
      const Point& a = mesh.points()[static_cast<std::size_t>(n1)];
      const Point& b = mesh.points()[static_cast<std::size_t>(n2)];
      const double len = std::hypot(b.x - a.x, b.y - a.y);
      const double eps = region_eps(p, t.region);
      const double ex = s.ex[static_cast<std::size_t>(e)];
      const double ey = s.ey[static_cast<std::size_t>(e)];
      // Traction t = T n with T = eps (E E^T - 1/2 |E|^2 I); horizontal
      // edge, n = (0, ny):
      const double tyy = eps * (ey * ey - 0.5 * (ex * ex + ey * ey));
      fy += tyy * ny * len;
    }
  }
  return fy;
}

double virtual_work_force_per_depth(const std::function<double(double)>& energy_of_gap,
                                    double gap, double delta) {
  return (energy_of_gap(gap + delta) - energy_of_gap(gap - delta)) / (2.0 * delta);
}

}  // namespace usys::fem
