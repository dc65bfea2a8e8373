// The full PXT workflow of the paper's last section, end to end:
//   1. device-level FE simulation of the plate capacitor (ANSYS substitute),
//   2. parameter extraction: C and F by numerical integration of the field,
//   3. sweep of boundary conditions -> piecewise-linear macromodel,
//   4. automatic HDL-AT model generation,
//   5. system-level simulation of the generated model with electronics
//      (a simple RC drive) — "simulation of the complete microsystem
//      including electronics".
#include <iostream>

#include "api/api.hpp"
#include "common/table.hpp"
#include "hdl/interpreter.hpp"
#include "pxt/pwl.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

using namespace usys;
using namespace usys::pxt;

int main() {
  std::cout << "=== PXT: FE characterization -> HDL model -> system simulation ===\n\n";

  // 1-2. One extraction at the operating point, with diagnostics.
  ExtractionSetup setup;
  setup.width = 0.1;
  setup.depth = 1e-3;
  setup.gap0 = 0.15e-3;
  setup.nx = 6;
  setup.ny = 10;
  const ExtractionSample probe = extract_point(setup, 0.0, 10.0);
  std::cout << "FE solve at V=10 V, x=0: C = " << fmt_sci(probe.capacitance, 5)
            << " F, F = " << fmt_sci(probe.force_mst, 5) << " N\n";
  std::cout << "analytic:               C = " << fmt_sci(analytic_capacitance(setup, 0.0), 5)
            << " F, F = " << fmt_sci(analytic_force(setup, 0.0, 10.0), 5) << " N\n\n";

  // 3. Boundary-condition sweep -> macromodel.
  std::vector<double> xs;
  for (int i = -5; i <= 5; ++i) xs.push_back(static_cast<double>(i) * 6e-6);
  const ExtractionTable table = extract_sweep(setup, xs, {10.0}, false);
  std::cout << "swept " << xs.size() << " displacements -> C(x) table\n\n";

  // 4. Generated HDL-AT model text.
  const std::string hdl_src = generate_hdl_model(table, 3);
  std::cout << "--- generated model ---\n" << hdl_src << "\n";

  // 5. System-level: generated transducer + drive electronics (RC lowpass
  //    models a weak amplifier output stage) + the mechanical resonator.
  spice::Circuit ckt;
  const int amp = ckt.add_node("amp", Nature::electrical);
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  const int disp = ckt.add_node("disp", Nature::mechanical_translation);
  ckt.add<spice::VSource>(
      "V1", amp, spice::Circuit::kGround,
      std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {2e-3, 10.0}, {1.0, 10.0}}));
  ckt.add<spice::Resistor>("Ramp", amp, drive, 10e3);
  ckt.add<spice::Capacitor>("Cpar", drive, spice::Circuit::kGround, 100e-12);
  ckt.add_device(hdl::instantiate(
      "XT", hdl_src, "pxt_etrans", {},
      {drive, spice::Circuit::kGround, vel, spice::Circuit::kGround}));
  ckt.add<spice::Mass>("M1", vel, 1e-4);
  ckt.add<spice::Spring>("K1", vel, spice::Circuit::kGround, 200.0);
  ckt.add<spice::Damper>("D1", vel, spice::Circuit::kGround, 40e-3);
  ckt.add<spice::StateIntegrator>("XD", disp, vel);

  spice::TranOptions opts;
  opts.tstop = 60e-3;
  const auto res = api::transient(ckt, opts);
  if (!res.ok) {
    std::cerr << "system simulation failed: " << res.error << "\n";
    return 1;
  }
  AsciiTable t({"t [ms]", "V(drive) [V]", "x [nm]"});
  for (double time = 0.0; time <= 60e-3; time += 6e-3) {
    t.add_row({fmt_num(time * 1e3), fmt_num(res.sample(time, drive), 4),
               fmt_num(res.sample(time, disp) * 1e9, 4)});
  }
  t.print(std::cout);
  std::cout << "\nThe FE-characterized model runs inside a SPICE-style netlist with\n"
               "electronics — the complete-microsystem workflow of the paper.\n";
  return 0;
}
