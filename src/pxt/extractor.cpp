#include "pxt/extractor.hpp"

#include <cmath>

#include "common/constants.hpp"

namespace usys::pxt {
namespace {

/// Builds the mesh + problem for a given gap and voltage.
struct Built {
  fem::Mesh mesh;
  fem::ElectrostaticProblem problem;
};

Built build(const ExtractionSetup& setup, double gap, double voltage) {
  Built b;
  fem::PlateMeshSpec spec;
  spec.width = setup.width;
  spec.gap = gap;
  spec.nx = setup.nx;
  spec.ny = setup.ny;
  spec.side_margin = setup.side_margin;
  b.mesh = fem::make_plate_mesh(spec);
  b.problem.mesh = &b.mesh;
  b.problem.eps0 = kEps0Paper;
  b.problem.eps_r = {setup.eps_r, 1.0};  // region 1 = air margins
  b.problem.v_bottom = voltage;
  b.problem.v_top = 0.0;
  return b;
}

}  // namespace

ExtractionSample extract_point(const ExtractionSetup& setup, double displacement,
                               double voltage, bool with_virtual_work) {
  ExtractionSample s;
  s.displacement = displacement;
  s.voltage = voltage;
  const double gap = setup.gap0 + displacement;

  Built b = build(setup, gap, voltage);
  const fem::ElectrostaticSolution sol = fem::solve_electrostatics(b.problem);
  s.energy = fem::field_energy(b.problem, sol) * setup.depth;
  s.capacitance = fem::capacitance_per_depth(b.problem, sol) * setup.depth;
  // Force on the moving (top) plate; per-depth quantity scaled to 3D.
  s.force_mst =
      fem::maxwell_force_per_depth(b.problem, sol, fem::BoundaryTag::top) * setup.depth;
  if (with_virtual_work) {
    auto energy_of_gap = [&](double g) {
      Built bb = build(setup, g, voltage);
      const fem::ElectrostaticSolution ss = fem::solve_electrostatics(bb.problem);
      return fem::field_energy(bb.problem, ss);
    };
    s.force_vw =
        fem::virtual_work_force_per_depth(energy_of_gap, gap, 1e-4 * gap) * setup.depth;
  }
  return s;
}

ExtractionTable extract_sweep(const ExtractionSetup& setup,
                              const std::vector<double>& displacements,
                              const std::vector<double>& voltages,
                              bool with_virtual_work) {
  ExtractionTable table;
  table.setup = setup;
  table.displacements = displacements;
  table.voltages = voltages;
  table.samples.reserve(displacements.size() * voltages.size());
  for (double x : displacements) {
    for (double v : voltages) {
      table.samples.push_back(extract_point(setup, x, v, with_virtual_work));
    }
  }
  return table;
}

double analytic_capacitance(const ExtractionSetup& setup, double displacement) {
  const double gap = setup.gap0 + displacement;
  return kEps0Paper * setup.eps_r * setup.width * setup.depth / gap;
}

double analytic_force(const ExtractionSetup& setup, double displacement, double voltage) {
  const double gap = setup.gap0 + displacement;
  return -kEps0Paper * setup.eps_r * setup.width * setup.depth * voltage * voltage /
         (2.0 * gap * gap);
}

}  // namespace usys::pxt
