// FEM electrostatics vs the analytic parallel-plate solution: field, energy,
// capacitance, and both force-extraction paths (the Fig. 6 pipeline).
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/constants.hpp"
#include "fem/electrostatics.hpp"

namespace usys::fem {
namespace {

struct Setup {
  Mesh mesh;
  ElectrostaticProblem problem;
};

Setup plate(double width, double gap, int nx, int ny, double v) {
  Setup s;
  PlateMeshSpec spec;
  spec.width = width;
  spec.gap = gap;
  spec.nx = nx;
  spec.ny = ny;
  s.mesh = make_plate_mesh(spec);
  s.problem.mesh = &s.mesh;
  s.problem.v_bottom = v;
  s.problem.v_top = 0.0;
  return s;
}

TEST(Electrostatics, UniformFieldBetweenPlates) {
  auto s = plate(1e-3, 1e-4, 4, 8, 10.0);
  const auto sol = solve_electrostatics(s.problem);
  const double e_expected = 10.0 / 1e-4;
  for (int e = 0; e < s.mesh.element_count(); ++e) {
    EXPECT_NEAR(sol.ex[static_cast<std::size_t>(e)], 0.0, e_expected * 1e-9);
    EXPECT_NEAR(sol.ey[static_cast<std::size_t>(e)], e_expected, e_expected * 1e-9);
  }
}

TEST(Electrostatics, PotentialLinearAcrossGap) {
  auto s = plate(1e-3, 2e-4, 3, 10, 8.0);
  const auto sol = solve_electrostatics(s.problem);
  for (int i = 0; i < s.mesh.node_count(); ++i) {
    const double y = s.mesh.points()[static_cast<std::size_t>(i)].y;
    EXPECT_NEAR(sol.phi[static_cast<std::size_t>(i)], 8.0 * (1.0 - y / 2e-4), 1e-8);
  }
}

TEST(Electrostatics, CapacitanceMatchesAnalytic) {
  const double width = 5e-3;
  const double gap = 1.5e-4;
  auto s = plate(width, gap, 8, 12, 10.0);
  const auto sol = solve_electrostatics(s.problem);
  const double c_fe = capacitance_per_depth(s.problem, sol);
  const double c_exact = kEps0Paper * width / gap;
  EXPECT_NEAR(c_fe, c_exact, c_exact * 1e-9);
}

TEST(Electrostatics, MaxwellForceMatchesAnalytic) {
  // Fig. 6 validation: F = -eps A V^2/(2 d^2), exact for the fringe-free
  // plate (the paper's own setup: "the fringe field was not modeled").
  const double width = 1e-2;
  const double gap = 0.15e-3;
  const double v = 10.0;
  auto s = plate(width, gap, 8, 8, v);
  const auto sol = solve_electrostatics(s.problem);
  const double f_fe = maxwell_force_per_depth(s.problem, sol, BoundaryTag::top);
  const double f_exact = -kEps0Paper * width * v * v / (2.0 * gap * gap);
  EXPECT_NEAR(f_fe, f_exact, std::abs(f_exact) * 1e-9);
}

TEST(Electrostatics, BottomElectrodeFeelsOppositeForce) {
  auto s = plate(1e-2, 1e-4, 6, 6, 5.0);
  const auto sol = solve_electrostatics(s.problem);
  const double f_top = maxwell_force_per_depth(s.problem, sol, BoundaryTag::top);
  const double f_bot = maxwell_force_per_depth(s.problem, sol, BoundaryTag::bottom);
  EXPECT_NEAR(f_top, -f_bot, std::abs(f_top) * 1e-9);
  EXPECT_LT(f_top, 0.0);  // attraction pulls top plate down
}

TEST(Electrostatics, VirtualWorkAgreesWithMaxwellStress) {
  const double width = 1e-2;
  const double gap = 0.15e-3;
  const double v = 10.0;
  auto energy_of_gap = [&](double g) {
    auto s = plate(width, g, 6, 8, v);
    const auto sol = solve_electrostatics(s.problem);
    return field_energy(s.problem, sol);
  };
  const double f_vw = virtual_work_force_per_depth(energy_of_gap, gap, gap * 1e-4);
  auto s = plate(width, gap, 6, 8, v);
  const auto sol = solve_electrostatics(s.problem);
  const double f_mst = maxwell_force_per_depth(s.problem, sol, BoundaryTag::top);
  EXPECT_NEAR(f_vw, f_mst, std::abs(f_mst) * 1e-4);
}

TEST(Electrostatics, FringeFieldIncreasesCapacitance) {
  // With air margins the fringe field adds capacitance vs the ideal value.
  PlateMeshSpec spec;
  spec.width = 1e-3;
  spec.gap = 2e-4;
  spec.nx = 10;
  spec.ny = 10;
  spec.side_margin = 4e-4;
  spec.margin_cells = 4;
  Mesh mesh = make_plate_mesh(spec);
  ElectrostaticProblem p;
  p.mesh = &mesh;
  p.v_bottom = 10.0;
  const auto sol = solve_electrostatics(p);
  const double c_fringe = capacitance_per_depth(p, sol);
  const double c_ideal = kEps0Paper * spec.width / spec.gap;
  EXPECT_GT(c_fringe, c_ideal * 1.001);
  EXPECT_LT(c_fringe, c_ideal * 1.5);
}

TEST(Electrostatics, FringeSolutionZeroesEveryFreeRowResidual) {
  // The discrete equations hold at every free node: |(K phi)_i| / (K_ii V)
  // at round-off. K is reassembled here from the P1 element formula, so the
  // check does not reuse the solver's own matrix. Each row is measured on
  // its own: a norm over all rows is dominated by the electrode nodes' 10 V
  // and hides a free-row residual of 1e-2.
  PlateMeshSpec spec;
  spec.width = 1e-3;
  spec.gap = 2e-4;
  spec.nx = 10;
  spec.ny = 10;
  spec.side_margin = 4e-4;
  spec.margin_cells = 4;
  Mesh mesh = make_plate_mesh(spec);
  ElectrostaticProblem p;
  p.mesh = &mesh;
  p.v_bottom = 10.0;
  const auto sol = solve_electrostatics(p);

  const std::size_t n = static_cast<std::size_t>(mesh.node_count());
  std::vector<double> k_phi(n, 0.0);
  std::vector<double> k_diag(n, 0.0);
  for (int e = 0; e < mesh.element_count(); ++e) {
    const Triangle& t = mesh.triangles()[static_cast<std::size_t>(e)];
    const Point& p0 = mesh.points()[static_cast<std::size_t>(t.n[0])];
    const Point& p1 = mesh.points()[static_cast<std::size_t>(t.n[1])];
    const Point& p2 = mesh.points()[static_cast<std::size_t>(t.n[2])];
    const double b[3] = {p1.y - p2.y, p2.y - p0.y, p0.y - p1.y};
    const double c[3] = {p2.x - p1.x, p0.x - p2.x, p1.x - p0.x};
    const double scale = p.eps0 / (2.0 * mesh.twice_area(e));
    for (int i = 0; i < 3; ++i) {
      const std::size_t gi = static_cast<std::size_t>(t.n[i]);
      for (int j = 0; j < 3; ++j) {
        const double kij = scale * (b[i] * b[j] + c[i] * c[j]);
        k_phi[gi] += kij * sol.phi[static_cast<std::size_t>(t.n[j])];
        if (i == j) k_diag[gi] += kij;
      }
    }
  }
  double worst = 0.0;
  int free_nodes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BoundaryTag tag = mesh.tags()[i];
    if (tag == BoundaryTag::top || tag == BoundaryTag::bottom) continue;
    ++free_nodes;
    worst = std::max(worst, std::abs(k_phi[i]) / (k_diag[i] * p.v_bottom));
  }
  EXPECT_GT(free_nodes, 0);
  EXPECT_LE(worst, 1e-12);
}

TEST(Electrostatics, DielectricScalesCapacitance) {
  auto s = plate(1e-3, 1e-4, 4, 6, 5.0);
  s.problem.eps_r = {3.9};  // oxide
  const auto sol = solve_electrostatics(s.problem);
  const double c = capacitance_per_depth(s.problem, sol);
  EXPECT_NEAR(c, 3.9 * kEps0Paper * 1e-3 / 1e-4, c * 1e-9);
}

TEST(Electrostatics, MissingElectrodesThrow) {
  Mesh mesh;  // empty
  ElectrostaticProblem p;
  p.mesh = &mesh;
  EXPECT_THROW(solve_electrostatics(p), std::invalid_argument);
  EXPECT_THROW(solve_electrostatics(ElectrostaticProblem{}), std::invalid_argument);
}

TEST(Electrostatics, MeshRefinementConvergence) {
  // The plate problem is exact at any resolution; verify the solver's
  // discrete answer is resolution-independent to tight tolerance.
  const double width = 1e-2;
  const double gap = 0.15e-3;
  double prev = 0.0;
  for (int n : {2, 4, 8}) {
    auto s = plate(width, gap, n, n, 10.0);
    const auto sol = solve_electrostatics(s.problem);
    const double f = maxwell_force_per_depth(s.problem, sol, BoundaryTag::top);
    if (n > 2) { EXPECT_NEAR(f, prev, std::abs(f) * 1e-8); }
    prev = f;
  }
}

}  // namespace
}  // namespace usys::fem
