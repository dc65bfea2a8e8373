// Integration regression: DC, transient, and AC results must be identical
// (to tight relative tolerance) between the dense and the sparse
// pattern-cached MNA paths, on linear ladders, an RLC tank, the
// electromagnetic relay pull-in circuit, an interpreted HDL model, and a
// "device zoo" holding every in-tree Device subclass. Also pins that the
// zoo's chargeless devices never stamp q, the
// "symbolic factorization at most once per analysis" guarantee via the
// solver stats, and that a stamp outside a device's own footprint is an
// error naming that device.
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <typeinfo>

#include "api/api.hpp"
#include "core/linearized.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "pxt/harmonic.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_nonlinear.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::spice {
namespace {

using CircuitBuilder = std::function<std::unique_ptr<Circuit>()>;

/// Max relative mismatch between two unknown vectors.
double rel_diff(const DVector& a, const DVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// Forces the sparse (threshold 0) or the dense (threshold INT_MAX) backend.
constexpr int kForceSparse = 0;
constexpr int kForceDense = std::numeric_limits<int>::max();

/// Newton options tightened far below the 1e-9 comparison tolerance so both
/// backends converge to (near) machine precision on identical iterates.
NewtonOptions tight_newton(int sparse_threshold) {
  NewtonOptions o;
  o.reltol = 1e-12;
  o.sparse_threshold = sparse_threshold;
  return o;
}

// --- circuits ---------------------------------------------------------------

std::unique_ptr<Circuit> rc_ladder(int sections) {
  auto ckt = std::make_unique<Circuit>();
  int prev = ckt->add_node("in", Nature::electrical);
  ckt->add<VSource>("V1", prev, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-6, 1e-6, 1.0),
                    Nature::electrical, /*ac_mag=*/1.0);
  for (int k = 0; k < sections; ++k) {
    const int node = ckt->add_node("n" + std::to_string(k), Nature::electrical);
    ckt->add<Resistor>("R" + std::to_string(k), prev, node, 1e3);
    ckt->add<Capacitor>("C" + std::to_string(k), node, Circuit::kGround, 1e-9);
    prev = node;
  }
  return ckt;
}

std::unique_ptr<Circuit> rlc_tank() {
  auto ckt = std::make_unique<Circuit>();
  const int in = ckt->add_node("in", Nature::electrical);
  const int mid = ckt->add_node("mid", Nature::electrical);
  ckt->add<VSource>("V1", in, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-7, 1e-7, 1.0),
                    Nature::electrical, /*ac_mag=*/1.0);
  ckt->add<Resistor>("R1", in, mid, 50.0);
  ckt->add<Inductor>("L1", mid, Circuit::kGround, 1e-3);
  ckt->add<Capacitor>("C1", mid, Circuit::kGround, 1e-6);
  ckt->add<Diode>("D1", mid, Circuit::kGround);
  return ckt;
}

/// The relay pull-in circuit of examples/relay_pull_in.cpp, driven below
/// the pull-in threshold (strongly nonlinear but deterministic endpoint).
std::unique_ptr<Circuit> relay(double v_coil) {
  core::TransducerGeometry g;
  g.area = 4e-5;
  g.gap = 0.4e-3;
  g.turns = 600;
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int coil = ckt->add_node("coil", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  const int disp = ckt->add_node("disp", Nature::mechanical_translation);
  ckt->add<VSource>(
      "V1", drive, Circuit::kGround,
      std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {1e-3, v_coil}, {1.0, v_coil}}));
  ckt->add<Resistor>("Rcoil", drive, coil, 60.0);
  ckt->add<core::ElectromagneticTransducer>("Xrel", coil, Circuit::kGround, vel,
                                            Circuit::kGround, g);
  ckt->add<Mass>("Marm", vel, 2e-3);
  ckt->add<Spring>("Karm", vel, Circuit::kGround, 900.0);
  ckt->add<Damper>("Darm", vel, Circuit::kGround, 0.8);
  ckt->add<StateIntegrator>("XD", disp, vel);
  return ckt;
}

/// Interpreted HDL transducer (paper Listing 1) in a resonator, exercising
/// the HdlDevice footprint.
std::unique_ptr<Circuit> hdl_resonator() {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  ckt->add<VSource>("V1", drive, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 10.0, 0.0, 1e-4, 1e-4, 0.05));
  ckt->add_device(hdl::instantiate(
      "XT", hdl::stdlib::paper_listing1(), "eletran",
      {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt->add<Mass>("M1", vel, 1e-4);
  ckt->add<Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<Damper>("D1", vel, Circuit::kGround, 40e-3);
  return ckt;
}

/// Mass-spring-damper on mechanical node `vel` (FI analogy: C = m, L = 1/k,
/// R = 1/alpha).
void add_resonator(Circuit& ckt, const std::string& tag, int vel, double m, double k,
                   double alpha) {
  ckt.add<Mass>("M" + tag, vel, m);
  ckt.add<Spring>("K" + tag, vel, Circuit::kGround, k);
  ckt.add<Damper>("D" + tag, vel, Circuit::kGround, alpha);
}

/// Every in-tree Device subclass in one circuit, all hanging off one pulsed
/// drive with an AC magnitude: passives and sources, the four controlled
/// sources, transformer, gyrator and state integrator, diode and Joule
/// heater, the transfer-function device, the four native transducers and
/// the linearized one, and an HDL device.
std::unique_ptr<Circuit> device_zoo() {
  auto ckt = std::make_unique<Circuit>();
  auto& c = *ckt;
  const int gnd = Circuit::kGround;
  const auto node = [&c](const char* name, Nature nature = Nature::electrical) {
    return c.add_node(name, nature);
  };
  const auto mech = [&node](const char* name) {
    return node(name, Nature::mechanical_translation);
  };

  const int in = node("in");
  c.add<VSource>("V1", in, gnd, std::make_unique<PulseWave>(0.5, 2.0, 0.0, 1e-4, 1e-4, 1.0),
                 Nature::electrical, /*ac_mag=*/1.0);

  // Passives, a current source and the controlled sources. Vsense is the
  // 0 V ammeter the current-controlled sources read.
  const int a = node("a");
  const int s = node("s");
  c.add<Resistor>("R0", in, a, 1e3);
  c.add<VSource>("Vsense", a, s, 0.0);
  c.add<Resistor>("Rs", s, gnd, 1e3);
  c.add<Capacitor>("Cs", s, gnd, 1e-9);
  const int li = node("li");
  c.add<ISource>("I1", gnd, li, 1e-3);
  c.add<Inductor>("L1", li, gnd, 1e-3);
  c.add<Resistor>("Rli", li, gnd, 50.0);
  const int e_out = node("e_out");
  c.add<Vcvs>("E1", e_out, gnd, a, gnd, 2.0);
  c.add<Resistor>("Re", e_out, gnd, 1e3);
  const int g_out = node("g_out");
  c.add<Vccs>("G1", g_out, gnd, a, gnd, 1e-3);
  c.add<Resistor>("Rg", g_out, gnd, 1e3);
  const int f_out = node("f_out");
  c.add<Cccs>("F1", f_out, gnd, "Vsense", 3.0, c);
  c.add<Resistor>("Rf", f_out, gnd, 500.0);
  const int h_out = node("h_out");
  c.add<Ccvs>("H1", h_out, gnd, "Vsense", 200.0, c);
  c.add<Resistor>("Rh", h_out, gnd, 1e3);

  // Two-ports.
  const int t_p = node("t_p");
  const int t_s = node("t_s");
  c.add<Resistor>("Rtp", in, t_p, 100.0);
  c.add<IdealTransformer>("T1", t_p, gnd, t_s, gnd, 5.0);
  c.add<Resistor>("Rts", t_s, gnd, 1e3);
  const int gy_a = node("gy_a");
  const int gy_b = node("gy_b");
  c.add<Resistor>("Rgya", in, gy_a, 100.0);
  c.add<Gyrator>("GY1", gy_a, gnd, gy_b, gnd, 0.01);
  c.add<Resistor>("Rgyb", gy_b, gnd, 1e3);

  // Nonlinear electrical and electrothermal.
  const int d_a = node("d_a");
  c.add<Resistor>("Rd", in, d_a, 1e3);
  c.add<Diode>("D1", d_a, gnd);
  const int temp = node("temp", Nature::thermal);
  c.add<JouleHeater>("HJ", in, gnd, temp, 100.0, 1e-3);
  c.add<Resistor>("RTH", temp, gnd, 40.0, Nature::thermal);
  c.add<Capacitor>("CTH", temp, gnd, 1e-4, Nature::thermal);

  // Macromodel: fitted transfer function.
  pxt::RationalFit fit;
  fit.num = {2.0};
  fit.den = {1.0, 0.5, 0.1};
  fit.scale = 2.0 * 3.141592653589793 * 1e3;
  const int tf_out = node("tf_out");
  c.add<pxt::TransferFunctionDevice>("XTF", a, gnd, tf_out, gnd, fit);
  c.add<Resistor>("Rtf", tf_out, gnd, 1e3);

  // Native transducers, each on its own mechanical load.
  core::TransducerGeometry g;
  const int v_tr = mech("v_tr");
  c.add<core::TransverseElectrostatic>("XTR", in, gnd, v_tr, gnd, g);
  add_resonator(c, "tr", v_tr, 1e-4, 200.0, 40e-3);
  core::TransducerGeometry gp;
  gp.depth = 1e-3;
  gp.length = 2e-3;
  gp.gap = 1e-5;
  const int v_par = mech("v_par");
  c.add<core::ParallelElectrostatic>("XPAR", in, gnd, v_par, gnd, gp);
  add_resonator(c, "par", v_par, 1e-4, 100.0, 40e-3);
  core::TransducerGeometry gm;
  gm.area = 4e-5;
  gm.gap = 0.4e-3;
  gm.turns = 600;
  const int coil = node("coil");
  const int v_em = mech("v_em");
  c.add<Resistor>("Rcoil", in, coil, 60.0);
  c.add<core::ElectromagneticTransducer>("XEM", coil, gnd, v_em, gnd, gm);
  add_resonator(c, "em", v_em, 2e-3, 900.0, 0.8);
  core::TransducerGeometry gd;
  gd.turns = 100;
  gd.radius = 5e-3;
  gd.b_field = 1.0;
  const int vc = node("vc");
  const int v_ed = mech("v_ed");
  c.add<Resistor>("Rvc", in, vc, 8.0);
  c.add<core::ElectrodynamicTransducer>("XED", vc, gnd, v_ed, gnd, gd);
  c.add<Mass>("Med", v_ed, 5e-3);
  c.add<Damper>("Ded", v_ed, gnd, 1.0);
  const int v_lin = mech("v_lin");
  c.add<core::LinearizedTransverseElectrostatic>(
      "XLIN", in, gnd, v_lin, gnd, core::linearize_transverse(core::ResonatorParams{}));
  add_resonator(c, "lin", v_lin, 1e-4, 200.0, 40e-3);

  // Behavioural HDL (paper Listing 1).
  const int v_hdl = mech("v_hdl");
  c.add_device(hdl::instantiate("XHDL", hdl::stdlib::paper_listing1(), "eletran",
                                {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                                {in, gnd, v_hdl, gnd}));
  add_resonator(c, "hdl", v_hdl, 1e-4, 200.0, 40e-3);
  return ckt;
}

// --- parity harnesses -------------------------------------------------------

void expect_dc_parity(const CircuitBuilder& build) {
  DcOptions dense;
  dense.newton = tight_newton(kForceDense);
  DcOptions sparse;
  sparse.newton = tight_newton(kForceSparse);

  auto ckt_d = build();
  const OpResult rd = api::operating_point(*ckt_d, dense);
  auto ckt_s = build();
  const OpResult rs = api::operating_point(*ckt_s, sparse);

  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  EXPECT_LT(rel_diff(rd.x, rs.x), 1e-9);
  // One analysis, one symbolic factorization — every Newton iteration (and
  // gmin stage) reuses it.
  EXPECT_EQ(rs.symbolic_factorizations, 1);
}

void expect_tran_parity(const CircuitBuilder& build, double tstop, double dt) {
  TranOptions opts;
  opts.tstop = tstop;
  opts.dt_init = dt;
  opts.dt_max = dt;
  opts.adaptive = false;  // identical step sequences on both backends
  opts.newton = tight_newton(kForceDense);
  opts.dc.newton = tight_newton(kForceDense);

  auto ckt_d = build();
  const TranResult rd = api::transient(*ckt_d, opts);

  opts.newton.sparse_threshold = kForceSparse;
  opts.dc.newton.sparse_threshold = kForceSparse;
  auto ckt_s = build();
  const TranResult rs = api::transient(*ckt_s, opts);

  ASSERT_TRUE(rd.ok) << rd.error;
  ASSERT_TRUE(rs.ok) << rs.error;
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  ASSERT_EQ(rd.time.size(), rs.time.size());
  double worst = 0.0;
  for (std::size_t k = 0; k < rd.x.size(); ++k) worst = std::max(worst, rel_diff(rd.x[k], rs.x[k]));
  EXPECT_LT(worst, 1e-9);
  // One symbolic factorization for every step, plus the one of the
  // operating point the transient solved itself.
  EXPECT_EQ(rs.symbolic_factorizations, 2);
}

void expect_ac_parity(const CircuitBuilder& build) {
  AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e6;
  opts.points = 20;
  opts.dc.newton = tight_newton(kForceDense);

  auto ckt_d = build();
  const AcResult rd = api::ac_sweep(*ckt_d, opts);

  opts.dc.newton.sparse_threshold = kForceSparse;
  auto ckt_s = build();
  const AcResult rs = api::ac_sweep(*ckt_s, opts);

  ASSERT_TRUE(rd.ok) << rd.error;
  ASSERT_TRUE(rs.ok) << rs.error;
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  ASSERT_EQ(rd.freq.size(), rs.freq.size());
  for (std::size_t k = 0; k < rd.x.size(); ++k) {
    for (std::size_t i = 0; i < rd.x[k].size(); ++i) {
      const double scale =
          std::max({std::abs(rd.x[k][i]), std::abs(rs.x[k][i]), 1e-12});
      EXPECT_LT(std::abs(rd.x[k][i] - rs.x[k][i]) / scale, 1e-9)
          << "f=" << rd.freq[k] << " unknown=" << i;
    }
  }
}

// --- cases ------------------------------------------------------------------

TEST(SparseVsDense, DcRcLadder) {
  expect_dc_parity([] { return rc_ladder(40); });
}

TEST(SparseVsDense, DcRelay) {
  expect_dc_parity([] { return relay(6.0); });
}

TEST(SparseVsDense, TranRcLadder) {
  expect_tran_parity([] { return rc_ladder(25); }, 2e-5, 2e-7);
}

TEST(SparseVsDense, TranRlcWithDiode) {
  expect_tran_parity([] { return rlc_tank(); }, 5e-4, 1e-6);
}

TEST(SparseVsDense, TranRelayPullIn) {
  expect_tran_parity([] { return relay(6.0); }, 1e-2, 2e-5);
}

TEST(SparseVsDense, TranHdlListing1) {
  expect_tran_parity([] { return hdl_resonator(); }, 5e-3, 5e-5);
}

TEST(SparseVsDense, AcRcLadder) {
  expect_ac_parity([] { return rc_ladder(40); });
}

TEST(SparseVsDense, AcRlc) {
  expect_ac_parity([] { return rlc_tank(); });
}

TEST(SparseVsDense, AcSymbolicFactorizationComputedOncePerSweep) {
  AcOptions opts;
  opts.points = 30;
  opts.dc.newton = tight_newton(kForceSparse);
  auto ckt = rc_ladder(40);
  const AcResult r = api::ac_sweep(*ckt, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.used_sparse);
  // The sweep solved its own operating point: that solve's pivot searches,
  // plus one complex symbolic analysis for every frequency.
  auto fresh = rc_ladder(40);
  const OpResult op = api::operating_point(*fresh, opts.dc);
  ASSERT_TRUE(op.converged);
  EXPECT_GE(op.symbolic_factorizations, 1);
  EXPECT_EQ(r.symbolic_factorizations, op.symbolic_factorizations + 1);
}

TEST(SparseVsDense, AutoSelectCrossesOverOnSize) {
  // Small circuit: auto stays dense. Large ladder: auto goes sparse.
  {
    auto small = rlc_tank();
    DcOptions opts;  // default sparse_threshold
    const OpResult r = api::operating_point(*small, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_FALSE(r.used_sparse);
  }
  {
    auto big = rc_ladder(100);
    DcOptions opts;
    const OpResult r = api::operating_point(*big, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(r.used_sparse);
  }
}

TEST(SparseVsDense, DcDeviceZoo) {
  expect_dc_parity(device_zoo);
}

TEST(SparseVsDense, TranDeviceZoo) {
  expect_tran_parity(device_zoo, 5e-3, 5e-5);
}

TEST(SparseVsDense, AcDeviceZoo) {
  expect_ac_parity(device_zoo);
}

/// Every zoo device that declares it stores no charge leaves q untouched in
/// dc and transient mode, on passes with and without Jacobians and under
/// both HDL executors. The sentinel is -0.0: any q_add, even of +0.0, flips
/// its bits, so a q stamp added without flipping Device::stores_charge
/// fails here.
TEST(SparseVsDense, ChargelessZooDevicesLeaveQUntouched) {
  for (const hdl::HdlExecMode exec : {hdl::HdlExecMode::bytecode, hdl::HdlExecMode::ast}) {
    auto ckt = device_zoo();
    ckt->bind_all();
    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    DVector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.3 + 0.01 * static_cast<double>(i % 7);
    for (const auto& dev : ckt->devices()) {
      if (auto* hdl_dev = dynamic_cast<hdl::HdlDevice*>(dev.get())) hdl_dev->set_exec_mode(exec);
      dev->start_transient(x);
    }
    std::set<std::string> kinds;
    for (const auto& dev : ckt->devices()) {
      const Device& d = *dev;
      if (d.stores_charge()) continue;
      kinds.insert(typeid(d).name());
      for (const AnalysisMode mode : {AnalysisMode::dc, AnalysisMode::transient}) {
        for (const bool jacobian : {true, false}) {
          DVector f(n, 0.0);
          DVector q(n, -0.0);
          DMatrix jf(n, n), jq(n, n);
          EvalCtx ctx;
          ctx.mode = mode;
          ctx.time = mode == AnalysisMode::dc ? 0.0 : 2e-4;
          ctx.integ_c0 = mode == AnalysisMode::dc ? 0.0 : 1e-6;
          ctx.integ_c1 = ctx.integ_c0;
          ctx.x = &x;
          ctx.f = &f;
          ctx.q = &q;
          if (jacobian) {
            ctx.jf = &jf;
            ctx.jq = &jq;
          }
          dev->evaluate(ctx);
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(std::signbit(q[i]) && q[i] == 0.0)
                << dev->name() << " mode " << static_cast<int>(mode) << " jacobian "
                << jacobian << " q[" << i << "] = " << q[i];
          }
        }
      }
    }
    // Resistor, Damper, VSource, ISource, the HDL device, the four
    // controlled sources, the ideal transformer, the gyrator, the diode and
    // the Joule heater.
    EXPECT_EQ(kinds.size(), 13u);
    for (const std::type_info* t :
         {&typeid(hdl::HdlDevice), &typeid(Vcvs), &typeid(Vccs), &typeid(Cccs), &typeid(Ccvs),
          &typeid(IdealTransformer), &typeid(Gyrator), &typeid(Diode), &typeid(JouleHeater)})
      EXPECT_TRUE(kinds.count(t->name())) << t->name();
  }
}

/// A resistor whose footprint leaves out its second pin: its (b, b) and
/// (a, b) stamps fall outside its own block.
class PinShyResistor final : public Resistor {
 public:
  PinShyResistor(std::string name, int a, int b, double r)
      : Resistor(std::move(name), a, b, r), a_(a) {}
  void stamp_footprint(std::vector<int>& out) const override { out.push_back(a_); }

 private:
  int a_;
};

TEST(SparseVsDense, StampOutsideFootprintNamesTheDevice) {
  // R1 in parallel covers every (a, b) entry of the union pattern, so only
  // the per-device contract can catch Rshy's stray stamps.
  Circuit ckt;
  const int a = ckt.add_node("a", Nature::electrical);
  const int b = ckt.add_node("b", Nature::electrical);
  ckt.add<VSource>("V1", a, Circuit::kGround, 1.0);
  ckt.add<Resistor>("R1", a, b, 1e3);
  ckt.add<Resistor>("R2", b, Circuit::kGround, 1e3);
  ckt.add<PinShyResistor>("Rshy", a, b, 2e3);
  ckt.bind_all();
  MnaAssembler assembler(ckt, ckt.mna_pattern());
  const DVector x(static_cast<std::size_t>(ckt.unknown_count()), 0.5);
  DVector f, q;
  try {
    assembler.assemble(EvalCtx{}, x, f, q);
    FAIL() << "a stamp outside the device's footprint was absorbed";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("'Rshy'"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace usys::spice
