// Regenerates Figure 6: the PXT parameter extractor computing the
// electrostatic force on the movable plate of the transducer of Fig. 2a from
// an FE field solution (f = 1/2 integral eps E^2 n dS), using the Table 4
// parameters at zero displacement — "the result corresponds to the force in
// Table 3". Includes mesh-refinement and fringe-field studies, plus both
// extraction methods (Maxwell stress vs virtual work).
#include <iostream>

#include "common/table.hpp"
#include "core/reference.hpp"
#include "pxt/extractor.hpp"

using namespace usys;
using namespace usys::pxt;

int main() {
  std::cout << "=== Figure 6: PXT force extraction from the FE field ===\n\n";

  ExtractionSetup setup;  // width*depth = A = 1e-4 m^2, gap = Table 4 d
  setup.width = 0.1;
  setup.depth = 1e-3;
  setup.gap0 = 0.15e-3;
  setup.nx = 6;
  setup.ny = 10;

  const double f_table3 = analytic_force(setup, 0.0, 10.0);
  std::cout << "Table 3 reference: F = -e0*er*A*V^2/(2 d^2) = " << fmt_sci(f_table3, 5)
            << " N at V = 10 V, x = 0\n\n";

  std::cout << "--- extraction at the paper's operating point ---\n";
  const ExtractionSample s = extract_point(setup, 0.0, 10.0);
  AsciiTable t({"quantity", "FE-extracted", "analytic", "rel.err"});
  t.add_row({"capacitance C [F]", fmt_sci(s.capacitance, 5),
             fmt_sci(analytic_capacitance(setup, 0.0), 5),
             fmt_sci(std::abs(s.capacitance / analytic_capacitance(setup, 0.0) - 1.0), 2)});
  t.add_row({"force (Maxwell stress) [N]", fmt_sci(s.force_mst, 5), fmt_sci(f_table3, 5),
             fmt_sci(std::abs(s.force_mst / f_table3 - 1.0), 2)});
  t.add_row({"force (virtual work) [N]", fmt_sci(s.force_vw, 5), fmt_sci(f_table3, 5),
             fmt_sci(std::abs(s.force_vw / f_table3 - 1.0), 2)});
  t.print(std::cout);

  std::cout << "\n--- mesh refinement (fringe-free: exact at every resolution) ---\n";
  AsciiTable m({"mesh nx x ny", "F_mst [N]", "rel.err vs analytic"});
  for (int n : {2, 4, 8, 16}) {
    ExtractionSetup s2 = setup;
    s2.nx = n;
    s2.ny = n;
    const ExtractionSample e = extract_point(s2, 0.0, 10.0, false);
    m.add_row({fmt_num(n) + "x" + fmt_num(n), fmt_sci(e.force_mst, 6),
               fmt_sci(std::abs(e.force_mst / f_table3 - 1.0), 2)});
  }
  m.print(std::cout);

  std::cout << "\n--- voltage sweep at x = 0 (F ~ V^2) ---\n";
  AsciiTable v({"V [V]", "F_mst [N]", "F/F(5V)"});
  double f5 = 0.0;
  for (double volt : {5.0, 10.0, 15.0, 20.0}) {
    const ExtractionSample e = extract_point(setup, 0.0, volt, false);
    if (volt == 5.0) f5 = e.force_mst;
    v.add_row({fmt_num(volt), fmt_sci(e.force_mst, 5), fmt_num(e.force_mst / f5, 4)});
  }
  v.print(std::cout);

  std::cout << "\n--- displacement sweep at V = 10 V (F ~ 1/(d+x)^2) ---\n";
  AsciiTable x({"x [m]", "F_mst [N]", "F_analytic [N]"});
  for (double disp : {-5e-5, -2e-5, 0.0, 2e-5, 5e-5}) {
    const ExtractionSample e = extract_point(setup, disp, 10.0, false);
    x.add_row({fmt_num(disp), fmt_sci(e.force_mst, 5),
               fmt_sci(analytic_force(setup, disp, 10.0), 5)});
  }
  x.print(std::cout);

  std::cout << "\n--- fringe-field extension (the paper notes 'the fringe field was "
               "not modeled') ---\n";
  AsciiTable fr({"side margin [m]", "C [F]", "C/C_ideal"});
  for (double margin : {0.0, 2e-4, 5e-4, 1e-3}) {
    ExtractionSetup s3 = setup;
    s3.width = 1e-3;  // narrow plate so the fringe is visible
    s3.side_margin = margin;
    s3.nx = 10;
    s3.ny = 10;
    const ExtractionSample e = extract_point(s3, 0.0, 10.0, false);
    fr.add_row({fmt_num(margin), fmt_sci(e.capacitance, 5),
                fmt_num(e.capacitance / analytic_capacitance(s3, 0.0), 5)});
  }
  fr.print(std::cout);
  return 0;
}
