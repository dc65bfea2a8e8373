// 2D electrostatic FEM: -div(eps grad phi) = 0 with Dirichlet electrodes.
//
// This is the device-level simulation layer the paper delegates to ANSYS.
// P1 (linear triangle) elements give a piecewise-constant field E = -grad
// phi per element; post-processing provides the quantities PXT extracts:
// stored energy, capacitance, and the electrostatic force on an electrode
// via the Maxwell stress tensor f = 1/2 eps E^2 n integrated over the
// electrode surface (the equation printed in the paper's PXT section) or,
// alternatively, by virtual work dW/dx between two solutions.
#pragma once

#include <functional>

#include "fem/mesh.hpp"

namespace usys::fem {

/// Problem definition: mesh + per-region relative permittivity + electrode
/// potentials by boundary tag.
struct ElectrostaticProblem {
  const Mesh* mesh = nullptr;
  double eps0 = 8.8542e-12;            ///< paper's rounded value by default
  std::vector<double> eps_r = {1.0};   ///< per region id
  double v_bottom = 0.0;               ///< potential of BoundaryTag::bottom nodes
  double v_top = 0.0;                  ///< potential of BoundaryTag::top nodes
};

/// A solved field.
struct ElectrostaticSolution {
  std::vector<double> phi;   ///< nodal potentials

  /// Piecewise-constant element field (Ex, Ey) of element e.
  // (filled by solve_electrostatics)
  std::vector<double> ex;
  std::vector<double> ey;
};

/// Assembles the stiffness matrix K over the free (non-electrode) nodes,
/// with the electrode potentials moved to the right-hand side, and solves it
/// directly with SparseLu: phi is the exact discrete solution, with no
/// iteration count and no tolerance. Throws std::invalid_argument
/// on malformed problems (missing mesh, empty electrodes, degenerate
/// elements) and SparseLu's SingularMatrixError when K is singular.
ElectrostaticSolution solve_electrostatics(const ElectrostaticProblem& problem);

/// Field energy per unit depth: W' = 1/2 integral(eps |E|^2) dA  [J/m].
double field_energy(const ElectrostaticProblem& p, const ElectrostaticSolution& s);

/// Capacitance per unit depth from the energy: C' = 2 W' / V^2  [F/m].
double capacitance_per_depth(const ElectrostaticProblem& p, const ElectrostaticSolution& s);

/// Electrostatic force per unit depth on the electrode with `tag`, by
/// integrating the Maxwell stress 1/2 eps E^2 over a contour just inside
/// the domain (element-adjacent evaluation; y-component returned, the
/// normal direction of the plate problem). Negative = attraction toward
/// the other electrode for the top plate.  [N/m]
double maxwell_force_per_depth(const ElectrostaticProblem& p, const ElectrostaticSolution& s,
                               BoundaryTag tag);

/// Virtual-work force per unit depth in the direction of increasing gap:
/// F = +dW/dgap at constant voltage (co-energy theorem), evaluated by a
/// central difference over `energy_of_gap` (which must solve the field and
/// return the energy per depth for a given gap). Negative = attraction.
/// [N/m]
double virtual_work_force_per_depth(const std::function<double(double)>& energy_of_gap,
                                    double gap, double delta);

}  // namespace usys::fem
