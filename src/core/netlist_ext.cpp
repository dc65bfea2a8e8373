#include "core/netlist_ext.hpp"

#include <climits>
#include <cmath>

#include "core/linearized.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/devices_passive.hpp"

namespace usys::core {

using spice::NetlistError;
using spice::param_or;
using spice::require_int;
using spice::require_param;
using spice::sparam_or;
using spice::XDeviceArgs;

namespace {

struct Pins {
  int ea, eb, mc, md;
};

Pins transducer_pins(XDeviceArgs& a) {
  if (a.pins.size() != 4)
    throw NetlistError(a.line, "transducer takes 4 pins: e+ e- mech_free mech_ref");
  return {a.node(a.pins[0], Nature::electrical), a.node(a.pins[1], Nature::electrical),
          a.node(a.pins[2], Nature::mechanical_translation),
          a.node(a.pins[3], Nature::mechanical_translation)};
}

/// Execution mode for an HDL card: per-card `mode=` wins, then the
/// `.options hdl=` in effect, then the bytecode default.
hdl::HdlExecMode hdl_mode(const XDeviceArgs& a) {
  const std::string text = sparam_or(a, "mode", sparam_or(a, "hdl", "bytecode"));
  hdl::HdlExecMode mode{};
  if (!hdl::parse_exec_mode(text, mode))
    throw NetlistError(a.line, "device '" + a.name + "': bad HDL exec mode '" + text +
                           "' (ast|bytecode|codegen)");
  return mode;
}

/// Registers one 4-pin HDL-AT stdlib transducer card. `generic_of_param`
/// maps lowercase card keys to the model's generic names; keys absent from
/// the card fall back to the entity's declared defaults.
void register_hdl_card(spice::NetlistParser& parser, const std::string& type,
                       std::string (*source)(), const char* entity,
                       std::vector<std::pair<std::string, std::string>> generic_of_param) {
  parser.register_xdevice(
      type, [source, entity, generic_of_param = std::move(generic_of_param)](
                XDeviceArgs& a) {
        const Pins p = transducer_pins(a);
        std::map<std::string, double> generics;
        for (const auto& [param, generic] : generic_of_param) {
          if (const auto it = a.params.find(param); it != a.params.end())
            generics[generic] = it->second;
        }
        a.circuit->add_device(hdl::instantiate(a.name, source(), entity, generics,
                                               {p.ea, p.eb, p.mc, p.md}, hdl_mode(a)));
      });
}

}  // namespace

void register_transducer_devices(spice::NetlistParser& parser) {
  // `.options hdl=<mode>` selects the executor for HDL cards that follow;
  // per-card `mode=<mode>` overrides. Values validated at parse time; the
  // card-level key must be registered so its value bypasses the strict
  // numeric parameter contract.
  parser.register_string_option("hdl", [](const std::string& v) {
    hdl::HdlExecMode m{};
    return hdl::parse_exec_mode(v, m);
  });
  parser.register_string_param("mode");

  // HDL-AT stdlib transducers, executed by the HDL engine (interpreted /
  // bytecode / native codegen) rather than the hand-written C++ devices —
  // the netlist-level handle on the paper's central trade-off.
  register_hdl_card(parser, "HDLTRANSV", &hdl::stdlib::paper_listing1, "eletran",
                    {{"a", "A"}, {"d", "d"}, {"er", "er"}});
  register_hdl_card(parser, "HDLTRANSE", &hdl::stdlib::transverse_energy, "etransverse",
                    {{"a", "A"}, {"d", "d"}, {"er", "er"}});
  register_hdl_card(parser, "HDLTRANSP", &hdl::stdlib::parallel_electrostatic,
                    "eparallel", {{"h", "h"}, {"l", "l"}, {"d", "d"}, {"er", "er"}});
  register_hdl_card(parser, "HDLMAG", &hdl::stdlib::electromagnetic, "emagnetic",
                    {{"a", "A"}, {"d", "d"}, {"n", "N"}});
  register_hdl_card(parser, "HDLDYN", &hdl::stdlib::electrodynamic, "edynamic",
                    {{"n", "N"}, {"r", "r"}, {"b", "B"}});

  parser.register_xdevice("ETRANSV", [](XDeviceArgs& a) {
    const Pins p = transducer_pins(a);
    TransducerGeometry g;
    g.area = require_param(a, "a");
    g.gap = require_param(a, "d");
    g.eps_r = param_or(a, "er", 1.0);
    auto& dev = a.circuit->add<TransverseElectrostatic>(a.name, p.ea, p.eb, p.mc, p.md, g);
    dev.set_initial_displacement(param_or(a, "x0", 0.0));
  });

  parser.register_xdevice("ETRANSP", [](XDeviceArgs& a) {
    const Pins p = transducer_pins(a);
    TransducerGeometry g;
    g.depth = require_param(a, "h");
    g.length = require_param(a, "l");
    g.gap = require_param(a, "d");
    g.eps_r = param_or(a, "er", 1.0);
    auto& dev = a.circuit->add<ParallelElectrostatic>(a.name, p.ea, p.eb, p.mc, p.md, g);
    dev.set_initial_displacement(param_or(a, "x0", 0.0));
  });

  parser.register_xdevice("EMAG", [](XDeviceArgs& a) {
    const Pins p = transducer_pins(a);
    TransducerGeometry g;
    g.area = require_param(a, "a");
    g.gap = require_param(a, "d");
    g.turns = require_int(a, "n", 1, INT_MAX);
    auto& dev =
        a.circuit->add<ElectromagneticTransducer>(a.name, p.ea, p.eb, p.mc, p.md, g);
    dev.set_initial_displacement(param_or(a, "x0", 0.0));
  });

  parser.register_xdevice("EDYN", [](XDeviceArgs& a) {
    const Pins p = transducer_pins(a);
    TransducerGeometry g;
    g.turns = require_int(a, "n", 1, INT_MAX);
    g.radius = require_param(a, "r");
    g.b_field = require_param(a, "b");
    a.circuit->add<ElectrodynamicTransducer>(a.name, p.ea, p.eb, p.mc, p.md, g);
  });

  parser.register_xdevice("TRANSARRAY", [](XDeviceArgs& a) {
    if (a.pins.size() != 2)
      throw NetlistError(a.line, "TRANSARRAY takes 2 pins: e+ e- (shared bus)");
    const int count = require_int(a, "n", 1, spice::kMaxArrayCount);
    const int ea = a.node(a.pins[0], Nature::electrical);
    const int eb = a.node(a.pins[1], Nature::electrical);
    TransducerGeometry g;
    g.area = require_param(a, "a");
    g.gap = require_param(a, "d");
    g.eps_r = param_or(a, "er", 1.0);
    const double mass = require_param(a, "m");
    const double stiffness = require_param(a, "k");
    const double alpha = param_or(a, "alpha", 0.0);
    const double dspread = param_or(a, "dspread", 0.0);
    if (!(std::abs(dspread) < 1.0))
      throw NetlistError(a.line,
                         "TRANSARRAY dspread must satisfy |dspread| < 1 (the gap "
                         "gradient must keep every element's gap positive)");
    const double x0 = param_or(a, "x0", 0.0);
    const double base_gap = g.gap;
    for (int i = 0; i < count; ++i) {
      const std::string tag = a.name + "_" + std::to_string(i);
      const int mech =
          a.node(a.name + "_v" + std::to_string(i), Nature::mechanical_translation);
      // Linear fabrication gradient: gap varies by +-dspread across the array.
      const double lever = count > 1 ? 2.0 * i / (count - 1) - 1.0 : 0.0;
      g.gap = base_gap * (1.0 + dspread * lever);
      auto& dev = a.circuit->add<TransverseElectrostatic>(tag + "_xd", ea, eb, mech,
                                                          spice::Circuit::kGround, g);
      dev.set_initial_displacement(x0);
      a.circuit->add<spice::Mass>(tag + "_m", mech, mass);
      a.circuit->add<spice::Spring>(tag + "_k", mech, spice::Circuit::kGround, stiffness);
      if (alpha > 0.0)
        a.circuit->add<spice::Damper>(tag + "_b", mech, spice::Circuit::kGround, alpha);
    }
  });

  parser.register_xdevice("LINTRANSV", [](XDeviceArgs& a) {
    const Pins p = transducer_pins(a);
    ResonatorParams rp;
    rp.geom.area = require_param(a, "a");
    rp.geom.gap = require_param(a, "d");
    rp.geom.eps_r = param_or(a, "er", 1.0);
    rp.v_bias = require_param(a, "v0");
    rp.mass = require_param(a, "m");
    rp.stiffness = require_param(a, "k");
    rp.damping = param_or(a, "alpha", 40e-3);
    LinearizationOptions lo;
    lo.gamma = param_or(a, "secant", 1.0) != 0.0 ? GammaKind::secant : GammaKind::tangent;
    lo.include_spring_softening = param_or(a, "soften", 0.0) != 0.0;
    a.circuit->add<LinearizedTransverseElectrostatic>(a.name, p.ea, p.eb, p.mc, p.md,
                                                      linearize_transverse(rp, lo));
  });
}

spice::NetlistParser make_full_parser() {
  spice::NetlistParser parser;
  register_transducer_devices(parser);
  return parser;
}

}  // namespace usys::core
