// PXT — the physical parameter extractor (paper, "Parameter extraction and
// model generation from finite element analysis").
//
// Static extraction: iterate boundary conditions (electrode voltage V and
// plate displacement x), solve the FE field for each, and extract the
// conjugate macro-quantities — capacitance C(x) and electrostatic force
// F(V, x) — by numerically integrating element/nodal quantities, exactly as
// the paper's PXT does against ANSYS. The samples feed a piecewise-linear
// behavioral macromodel (pwl.hpp) and generated HDL-AT model text.
#pragma once

#include <string>
#include <vector>

#include "fem/electrostatics.hpp"

namespace usys::pxt {

/// Geometry of the plate device under extraction (3D quantities follow
/// from the 2D solution times `depth`; width*depth = electrode area A).
struct ExtractionSetup {
  double width = 0.1;        ///< electrode width in the modeled plane [m]
  double depth = 1e-3;       ///< out-of-plane depth [m]
  double gap0 = 0.15e-3;     ///< rest gap d [m]
  double eps_r = 1.0;
  int nx = 8;                ///< mesh resolution across the width
  int ny = 16;               ///< mesh resolution across the gap
  double side_margin = 0.0;  ///< >0 adds fringe-field margins
};

/// One extracted sample.
struct ExtractionSample {
  double displacement = 0.0;  ///< x (gap = gap0 + x)
  double voltage = 0.0;       ///< V
  double capacitance = 0.0;   ///< C(x) [F] (3D, scaled by depth)
  double force_mst = 0.0;     ///< Maxwell-stress force on the moving plate [N]
  double force_vw = 0.0;      ///< virtual-work force [N]
  double energy = 0.0;        ///< field energy [J]
};

/// Full static sweep result.
struct ExtractionTable {
  ExtractionSetup setup;
  std::vector<double> displacements;
  std::vector<double> voltages;
  /// samples[i*voltages.size() + j] = sample at (displacements[i], voltages[j]).
  std::vector<ExtractionSample> samples;

  const ExtractionSample& at(std::size_t xi, std::size_t vi) const {
    return samples[xi * voltages.size() + vi];
  }
};

/// Runs one FE solve at (x, V) and extracts all macro-quantities.
ExtractionSample extract_point(const ExtractionSetup& setup, double displacement,
                               double voltage, bool with_virtual_work = true);

/// Sweeps the (x, V) grid (the paper: "by repeating this procedure for
/// different voltages and displacements, a behavioral model is generated").
ExtractionTable extract_sweep(const ExtractionSetup& setup,
                              const std::vector<double>& displacements,
                              const std::vector<double>& voltages,
                              bool with_virtual_work = true);

/// Analytic references for validation (fringe-free parallel plate).
double analytic_capacitance(const ExtractionSetup& setup, double displacement);
double analytic_force(const ExtractionSetup& setup, double displacement, double voltage);

}  // namespace usys::pxt
