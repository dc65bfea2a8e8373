// Standard library of HDL-AT transducer models.
//
// `paper_listing1()` is the paper's Listing 1 verbatim (modulo whitespace):
// the transverse electrostatic transducer with the quasi-static electrical
// branch i = C(x)*ddt(V). Note that the listing omits the motional-current
// term dC/dx * S * V, making the electrical side slightly non-conservative;
// `transverse_energy()` is the energy-complete variant (both terms). The
// benches compare the two (an ablation the paper could not run).
//
// Sign note: our '%=' semantics is uniformly "flow absorbed at the first
// pin"; the mechanical contribution is therefore +dW/dx, whose *delivered*
// force equals the (negative) Table 3 value. The listing is reproduced with
// the sign adapted accordingly; see DESIGN.md.
#pragma once

#include <string>

namespace usys::hdl::stdlib {

/// Listing 1: transverse electrostatic transducer, entity `eletran`,
/// generics A, d, er; pins a,b electrical, c,d mechanical1.
std::string paper_listing1();

/// Energy-complete transverse electrostatic transducer, entity `etransverse`.
std::string transverse_energy();

/// Parallel (sliding plate) electrostatic transducer, entity `eparallel`;
/// generics h, l, d, er.
std::string parallel_electrostatic();

/// Electromagnetic reluctance transducer, entity `emagnetic`; generics
/// A, d, N. Uses an effort ('.v %=') electrical port with a readable branch
/// current.
std::string electromagnetic();

/// Electrodynamic voice-coil transducer, entity `edynamic`; generics N, r, B.
std::string electrodynamic();

}  // namespace usys::hdl::stdlib
