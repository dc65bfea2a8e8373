// Bytecode-vs-AST executor parity: every HDL model used in tests/ and
// examples/ runs through both HdlExecMode paths and must agree at 1e-12
// across DC, transient, and AC — the compiled VM mirrors sym::Dual operation
// for operation, so agreement is normally exact. Plus edge cases: min/max/
// limit gradient (active-branch) selection and the ASSERT-on-commit path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "api/api.hpp"
#include "hdl/bytecode.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/solver.hpp"

namespace usys::hdl {
namespace {

using spice::Circuit;

constexpr double kTol = 1e-12;

void expect_close(double a, double b, const std::string& what) {
  EXPECT_NEAR(a, b, kTol * std::max(1.0, std::abs(b))) << what;
}

const char* kGuardedModel = R"(
ENTITY eguard IS
  GENERIC (A, d, er : analog);
  PIN (a, b : electrical; c, f : mechanical1);
END ENTITY eguard;
ARCHITECTURE g OF eguard IS
  VARIABLE e0, x, gap : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, f].tv;
      x := integ(S);
      ASSERT d + x;
      gap := max(d + x, 0.05*d);
      [a, b].i %= e0*er*A/gap*ddt(V);
      [c, f].f %= e0*er*A*V*V/(2.0*gap*gap);
  END RELATION;
END ARCHITECTURE g;
)";

/// A model exercising every function and operator the executors support.
const char* kKitchenSink = R"(
ENTITY esink IS
  GENERIC (k : analog);
  PIN (a, b : electrical);
END ENTITY esink;
ARCHITECTURE x OF esink IS
  VARIABLE V, y, z : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      V := [a, b].v;
      y := sin(V) + cos(0.5*V) - tan(0.1*V) + exp(-V*V) + log(2.0 + V*V)
           + sqrt(1.0 + V*V) + abs(V - 0.25) + pow(1.0 + V*V, 1.5) + V^2.0;
      z := min(y, 4.0*V) + max(0.1*y, -2.0) + limit(y, -1.0, 3.0) - (-V)/(2.0 + V*V);
      [a, b].i %= 1e-3*z + 1e-12*ddt(V);
  END RELATION;
END ARCHITECTURE x;
)";

struct ModelCase {
  std::string label;
  std::string source;
  std::string entity;
  std::map<std::string, double> generics;
};

std::vector<ModelCase> regression_models() {
  return {
      {"listing1", stdlib::paper_listing1(), "eletran",
       {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}},
      {"transverse_energy", stdlib::transverse_energy(), "etransverse",
       {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}},
      {"parallel", stdlib::parallel_electrostatic(), "eparallel",
       {{"h", 1e-3}, {"l", 2e-3}, {"d", 1e-5}, {"er", 1.0}}},
      {"electromagnetic", stdlib::electromagnetic(), "emagnetic",
       {{"A", 1e-4}, {"d", 1e-3}, {"N", 100.0}}},
      {"electrodynamic", stdlib::electrodynamic(), "edynamic",
       {{"N", 100.0}, {"r", 5e-3}, {"B", 1.0}}},
      {"guarded", kGuardedModel, "eguard",
       {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}},
  };
}

/// Builds the Fig. 3-style drive circuit around one transducer instance: a
/// pulse-driven electrical port into a mass-spring-damper mechanical port.
/// All stdlib models share the 4-pin (electrical pair, mechanical pair)
/// interface, so one harness serves every regression model.
std::unique_ptr<Circuit> build_system(const ModelCase& mc, HdlExecMode mode,
                                      int* disp_out) {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int coil = ckt->add_node("coil", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  const int disp = ckt->add_node("disp", Nature::mechanical_translation);
  // ac_mag = 1 so the same harness serves the AC parity sweep.
  ckt->add<spice::VSource>(
      "V1", drive, Circuit::kGround,
      std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {5e-3, 8.0}, {1.0, 8.0}}),
      Nature::electrical, 1.0);
  // The series resistor keeps effort-port models (emagnetic, edynamic) from
  // shorting the source; for flow-port models it is just a source impedance.
  ckt->add<spice::Resistor>("R1", drive, coil, 50.0);
  ckt->add_device(instantiate("XT", mc.source, mc.entity, mc.generics,
                              {coil, Circuit::kGround, vel, Circuit::kGround}, mode));
  ckt->add<spice::Mass>("M1", vel, 1e-4);
  ckt->add<spice::Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<spice::Damper>("D1", vel, Circuit::kGround, 40e-3);
  ckt->add<spice::StateIntegrator>("XD", disp, vel);
  if (disp_out != nullptr) *disp_out = disp;
  return ckt;
}

TEST(BytecodeParity, DcAgreesAcrossAllModels) {
  for (const auto& mc : regression_models()) {
    auto ast = build_system(mc, HdlExecMode::ast, nullptr);
    auto vm = build_system(mc, HdlExecMode::bytecode, nullptr);
    const auto ra = api::operating_point(*ast);
    const auto rb = api::operating_point(*vm);
    ASSERT_TRUE(ra.converged) << mc.label;
    ASSERT_TRUE(rb.converged) << mc.label;
    ASSERT_EQ(ra.x.size(), rb.x.size()) << mc.label;
    for (std::size_t i = 0; i < ra.x.size(); ++i)
      expect_close(rb.x[i], ra.x[i], mc.label + " dc unknown " + std::to_string(i));
  }
}

TEST(BytecodeParity, TransientAgreesAcrossAllModels) {
  spice::TranOptions opts;
  opts.tstop = 20e-3;
  opts.dt_max = 1e-4;
  for (const auto& mc : regression_models()) {
    int disp_a = -1, disp_b = -1;
    auto ast = build_system(mc, HdlExecMode::ast, &disp_a);
    auto vm = build_system(mc, HdlExecMode::bytecode, &disp_b);
    const auto ra = api::transient(*ast, opts);
    const auto rb = api::transient(*vm, opts);
    ASSERT_TRUE(ra.ok) << mc.label << ": " << ra.error;
    ASSERT_TRUE(rb.ok) << mc.label << ": " << rb.error;
    // Identical arithmetic => identical adaptive step sequence.
    EXPECT_EQ(ra.time.size(), rb.time.size()) << mc.label;
    for (double t : {2e-3, 5e-3, 10e-3, 20e-3}) {
      expect_close(rb.sample(t, disp_b), ra.sample(t, disp_a),
                   mc.label + " tran disp at t=" + std::to_string(t));
    }
    // Every unknown at the final accepted point.
    ASSERT_EQ(ra.x.back().size(), rb.x.back().size()) << mc.label;
    for (std::size_t i = 0; i < ra.x.back().size(); ++i)
      expect_close(rb.x.back()[i], ra.x.back()[i],
                   mc.label + " tran final unknown " + std::to_string(i));
  }
}

TEST(BytecodeParity, AcAgreesAcrossAllModels) {
  spice::AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e4;
  opts.points = 5;  // per decade
  for (const auto& mc : regression_models()) {
    auto ast = build_system(mc, HdlExecMode::ast, nullptr);
    auto vm = build_system(mc, HdlExecMode::bytecode, nullptr);
    const auto ra = api::ac_sweep(*ast, opts);
    const auto rb = api::ac_sweep(*vm, opts);
    ASSERT_TRUE(ra.ok) << mc.label << ": " << ra.error;
    ASSERT_TRUE(rb.ok) << mc.label << ": " << rb.error;
    ASSERT_EQ(ra.freq.size(), rb.freq.size()) << mc.label;
    for (std::size_t k = 0; k < ra.freq.size(); ++k) {
      for (std::size_t i = 0; i < ra.x[k].size(); ++i) {
        expect_close(rb.x[k][i].real(), ra.x[k][i].real(),
                     mc.label + " ac re, f=" + std::to_string(ra.freq[k]));
        expect_close(rb.x[k][i].imag(), ra.x[k][i].imag(),
                     mc.label + " ac im, f=" + std::to_string(ra.freq[k]));
      }
    }
  }
}

/// Direct stamp-level parity at a fixed iterate: f, Jf, and the jq
/// extraction must match entry for entry (dense oracle path).
TEST(BytecodeParity, StampAndJqExtractionMatchEntrywise) {
  for (const auto& mc : regression_models()) {
    auto ckt = build_system(mc, HdlExecMode::bytecode, nullptr);
    ckt->bind_all();
    auto* dev = dynamic_cast<HdlDevice*>(ckt->find_device("XT"));
    ASSERT_NE(dev, nullptr) << mc.label;
    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    DVector x(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.3 + 0.1 * static_cast<double>(i);

    auto stamp_with = [&](HdlExecMode mode, DVector& f, DMatrix& jf, DMatrix& jq) {
      dev->set_exec_mode(mode);
      f.assign(n, 0.0);
      DVector q(n, 0.0);
      jf = DMatrix(n, n);
      jq = DMatrix(n, n);
      spice::EvalCtx ctx;
      ctx.mode = spice::AnalysisMode::dc;
      ctx.x = &x;
      ctx.f = &f;
      ctx.q = &q;
      ctx.jf = &jf;
      ctx.jq = &jq;
      dev->evaluate(ctx);
    };
    DVector fa, fb;
    DMatrix jfa, jfb, jqa, jqb;
    stamp_with(HdlExecMode::ast, fa, jfa, jqa);
    stamp_with(HdlExecMode::bytecode, fb, jfb, jqb);
    for (std::size_t r = 0; r < n; ++r) {
      expect_close(fb[r], fa[r], mc.label + " f row " + std::to_string(r));
      for (std::size_t c = 0; c < n; ++c) {
        expect_close(jfb(r, c), jfa(r, c), mc.label + " jf " + std::to_string(r) +
                                               "," + std::to_string(c));
        expect_close(jqb(r, c), jqa(r, c), mc.label + " jq " + std::to_string(r) +
                                               "," + std::to_string(c));
      }
    }
  }
}

/// min/max/limit pick the *gradient* of the active branch, not a blend; the
/// stamped conductance must switch with the operating point in both modes.
TEST(BytecodeParity, MinMaxLimitGradientFollowsActiveBranch) {
  const char* src = R"(
ENTITY epw IS
  GENERIC (k : analog);
  PIN (a, b : electrical);
END ENTITY epw;
ARCHITECTURE x OF epw IS
  VARIABLE V, y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      V := [a, b].v;
      y := min(2.0*V, 3.0) + max(0.5*V, -1.0) + limit(k*V, -4.0, 4.0);
  [a, b].i %= y;
  END RELATION;
END ARCHITECTURE x;
)";
  for (const HdlExecMode mode : {HdlExecMode::ast, HdlExecMode::bytecode}) {
    Circuit ckt;
    const int node = ckt.add_node("n", Nature::electrical);
    ckt.add_device(instantiate("XP", src, "epw", {{"k", 3.0}},
                               {node, Circuit::kGround}, mode));
    ckt.bind_all();
    auto* dev = ckt.find_device("XP");
    const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
    auto conductance_at = [&](double v) {
      DVector x(n, 0.0), f(n, 0.0), q(n, 0.0);
      DMatrix jf(n, n), jq(n, n);
      x[0] = v;
      spice::EvalCtx ctx;
      ctx.mode = spice::AnalysisMode::dc;
      ctx.x = &x;
      ctx.f = &f;
      ctx.q = &q;
      ctx.jf = &jf;
      ctx.jq = &jq;
      dev->evaluate(ctx);
      return jf(0, 0);
    };
    // V = 0.5: min active on 2V (g=2), max active on 0.5V (g=0.5),
    // limit interior on 3V (g=3) -> 5.5 total.
    EXPECT_NEAR(conductance_at(0.5), 5.5, 1e-12) << "mode " << static_cast<int>(mode);
    // V = 2.0: min saturates at 3 (g=0), max on 0.5V (g=0.5), limit clamps
    // at 4 (g=0) -> 0.5.
    EXPECT_NEAR(conductance_at(2.0), 0.5, 1e-12) << "mode " << static_cast<int>(mode);
    // V = -3.0: min on 2V (g=2), max saturates at -1 (g=0), limit clamps at
    // -4 (g=0) -> 2.
    EXPECT_NEAR(conductance_at(-3.0), 2.0, 1e-12) << "mode " << static_cast<int>(mode);
  }
}

TEST(BytecodeParity, KitchenSinkStampMatches) {
  for (double v : {-1.7, -0.25, 0.0, 0.4, 2.3}) {
    DVector f_ref;
    DMatrix jf_ref;
    bool have_ref = false;
    for (const HdlExecMode mode : {HdlExecMode::ast, HdlExecMode::bytecode}) {
      Circuit ckt;
      const int node = ckt.add_node("n", Nature::electrical);
      ckt.add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                                 {node, Circuit::kGround}, mode));
      ckt.bind_all();
      const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
      DVector x(n, v), f(n, 0.0), q(n, 0.0);
      DMatrix jf(n, n), jq(n, n);
      spice::EvalCtx ctx;
      ctx.mode = spice::AnalysisMode::transient;
      ctx.integ_c0 = 0.0;
      ctx.integ_c1 = 1e-5;
      ctx.x = &x;
      ctx.f = &f;
      ctx.q = &q;
      ctx.jf = &jf;
      ctx.jq = &jq;
      ckt.find_device("XS")->evaluate(ctx);
      ASSERT_TRUE(std::isfinite(f[0])) << "v=" << v;
      if (!have_ref) {
        f_ref = f;
        jf_ref = jf;
        have_ref = true;
      } else {
        expect_close(f[0], f_ref[0], "kitchen sink f at v=" + std::to_string(v));
        expect_close(jf(0, 0), jf_ref(0, 0),
                     "kitchen sink jf at v=" + std::to_string(v));
      }
    }
  }
}

/// ASSERT fires on accepted (committed) solutions in both executors, warns
/// once per site, and the collapse trajectories agree. The boundary is set
/// at 20% of the gap: pull-in provably carries the displacement past -d/3.
const char* kCollapseModel = R"(
ENTITY ecollapse IS
  GENERIC (A, d, er : analog);
  PIN (a, b : electrical; c, f : mechanical1);
END ENTITY ecollapse;
ARCHITECTURE g OF ecollapse IS
  VARIABLE e0, x, gap : analog;
  STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, f].tv;
      x := integ(S);
      ASSERT 0.2*d + x;
      gap := max(d + x, 0.05*d);
      [a, b].i %= e0*er*A/gap*ddt(V);
      [c, f].f %= e0*er*A*V*V/(2.0*gap*gap);
  END RELATION;
END ARCHITECTURE g;
)";

TEST(BytecodeParity, AssertOnCommitFiresInBothModes) {
  spice::TranOptions opts;
  opts.tstop = 30e-3;
  std::vector<double> finals;
  for (const HdlExecMode mode : {HdlExecMode::ast, HdlExecMode::bytecode}) {
    Circuit ckt;
    const int drive = ckt.add_node("drive", Nature::electrical);
    const int vel = ckt.add_node("vel", Nature::mechanical_translation);
    const int disp = ckt.add_node("disp", Nature::mechanical_translation);
    ckt.add<spice::VSource>(
        "V1", drive, Circuit::kGround,
        std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {1e-3, 60.0}, {1.0, 60.0}}));
    ckt.add_device(instantiate("XT", kCollapseModel, "ecollapse",
                               {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                               {drive, Circuit::kGround, vel, Circuit::kGround},
                               mode));
    ckt.add<spice::Mass>("M1", vel, 1e-4);
    ckt.add<spice::Spring>("K1", vel, Circuit::kGround, 0.5);  // soft: pull-in
    ckt.add<spice::Damper>("D1", vel, Circuit::kGround, 40e-3);
    ckt.add<spice::StateIntegrator>("XD", disp, vel);
    const auto res = api::transient(ckt, opts);
    ASSERT_TRUE(res.ok) << res.error;
    auto* dev = dynamic_cast<HdlDevice*>(ckt.find_device("XT"));
    ASSERT_NE(dev, nullptr);
    // The gap collapses past pull-in, so the ASSERT must have tripped —
    // exactly one distinct site in this model.
    EXPECT_EQ(dev->assert_violations(), 1) << "mode " << static_cast<int>(mode);
    finals.push_back(res.sample(30e-3, disp));
  }
  expect_close(finals[1], finals[0], "collapse displacement");
}

/// ASSERT must stay quiet through non-accepted Newton excursions: a benign
/// drive never trips it in either mode.
TEST(BytecodeParity, AssertQuietWhenConditionHolds) {
  spice::TranOptions opts;
  opts.tstop = 20e-3;
  for (const HdlExecMode mode : {HdlExecMode::ast, HdlExecMode::bytecode}) {
    Circuit ckt;
    const int drive = ckt.add_node("drive", Nature::electrical);
    const int vel = ckt.add_node("vel", Nature::mechanical_translation);
    ckt.add<spice::VSource>(
        "V1", drive, Circuit::kGround,
        std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {5e-3, 10.0}, {1.0, 10.0}}));
    ckt.add_device(instantiate("XT", kGuardedModel, "eguard",
                               {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                               {drive, Circuit::kGround, vel, Circuit::kGround},
                               mode));
    ckt.add<spice::Mass>("M1", vel, 1e-4);
    ckt.add<spice::Spring>("K1", vel, Circuit::kGround, 200.0);
    ckt.add<spice::Damper>("D1", vel, Circuit::kGround, 40e-3);
    const auto res = api::transient(ckt, opts);
    ASSERT_TRUE(res.ok) << res.error;
    auto* dev = dynamic_cast<HdlDevice*>(ckt.find_device("XT"));
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->assert_violations(), 0) << "mode " << static_cast<int>(mode);
  }
}

// --- value-only VM runs ------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_bits(const DVector& a, const DVector& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i], b[i])) << what << " [" << i << "]: " << a[i] << " vs " << b[i];
}

/// Runs one pass of `prog` twice, through the gradient and the value-only
/// instantiation, from the same x and the same ddt/integ site states, and
/// requires bit-identical f, q, committed site states and fired ASSERTs.
/// Returns how many ASSERT sites fired.
std::size_t expect_value_only_parity(const BytecodeProgram& prog, std::size_t n, const DVector& x,
                              HdlPass pass, const std::vector<DdtSiteState>& ddt0,
                              const std::vector<IntegSiteState>& integ0,
                              const std::string& what) {
  struct Run {
    DVector f, q;
    DMatrix jf, jq;
    std::vector<DdtSiteState> ddt;
    std::vector<IntegSiteState> integ;
    std::vector<std::pair<int, double>> fired;
    spice::EvalCtx ctx;
    BytecodeVm::RunIo io;
  };
  Run runs[2];
  for (int k = 0; k < 2; ++k) {
    Run& r = runs[k];
    const bool grad = k == 0;
    r.f.assign(n, 0.0);
    r.q.assign(n, 0.0);
    r.ddt = ddt0;
    r.integ = integ0;
    r.ctx.mode = pass == HdlPass::dc ? spice::AnalysisMode::dc : spice::AnalysisMode::transient;
    r.ctx.integ_c0 = pass == HdlPass::dc ? 0.0 : 2.5e-6;
    r.ctx.integ_c1 = pass == HdlPass::dc ? 0.0 : 2.5e-6;
    r.ctx.x = &x;
    r.ctx.f = &r.f;
    r.ctx.q = &r.q;
    if (grad) {
      // The Newton stamp: Jacobians kept, so run() must pick gradients
      // (except on commit, which never stamps).
      r.jf = DMatrix(n, n);
      r.jq = DMatrix(n, n);
      r.ctx.jf = &r.jf;
      r.ctx.jq = &r.jq;
    }
    r.io.ctx = &r.ctx;
    r.io.x = &x;
    r.io.pass = pass;
    r.io.c0 = r.ctx.integ_c0;
    r.io.c1 = pass == HdlPass::dc ? 1.0 : r.ctx.integ_c1;
    r.io.ddt = &r.ddt;
    r.io.integ = &r.integ;
    if (pass == HdlPass::commit) r.io.fired_asserts = &r.fired;
    EXPECT_EQ(BytecodeVm::wants_gradients(r.io), grad && pass != HdlPass::commit) << what;
    BytecodeVm vm(&prog);
    if (grad) {
      vm.run_pass<true>(r.io);
    } else {
      vm.run_pass<false>(r.io);
    }
  }
  const Run& g = runs[0];
  const Run& v = runs[1];
  expect_same_bits(v.f, g.f, what + " f");
  expect_same_bits(v.q, g.q, what + " q");
  for (std::size_t i = 0; i < g.ddt.size(); ++i) {
    EXPECT_TRUE(same_bits(v.ddt[i].u_prev, g.ddt[i].u_prev)) << what << " ddt u_prev " << i;
    EXPECT_TRUE(same_bits(v.ddt[i].udot_prev, g.ddt[i].udot_prev)) << what << " ddt udot " << i;
  }
  for (std::size_t i = 0; i < g.integ.size(); ++i) {
    EXPECT_TRUE(same_bits(v.integ[i].s_prev, g.integ[i].s_prev)) << what << " integ s " << i;
    EXPECT_TRUE(same_bits(v.integ[i].e_prev, g.integ[i].e_prev)) << what << " integ e " << i;
  }
  EXPECT_EQ(v.fired.size(), g.fired.size()) << what;
  for (std::size_t i = 0; i < std::min(v.fired.size(), g.fired.size()); ++i) {
    EXPECT_EQ(v.fired[i].first, g.fired[i].first) << what;
    EXPECT_TRUE(same_bits(v.fired[i].second, g.fired[i].second)) << what;
  }
  return g.fired.size();
}

/// Every stdlib model plus the guarded (max + ASSERT) model: value-only runs
/// bit-match gradient runs on the dc, transient and commit passes, from
/// site states on both sides of the guard (the ASSERT fires in the second).
TEST(BytecodeValueOnly, BitMatchesGradientRunOnEveryModel) {
  std::size_t fired = 0;
  for (const auto& mc : regression_models()) {
    auto ckt = build_system(mc, HdlExecMode::bytecode, nullptr);
    ckt->bind_all();
    auto* dev = dynamic_cast<HdlDevice*>(ckt->find_device("XT"));
    ASSERT_NE(dev, nullptr) << mc.label;
    const BytecodeProgram& prog = dev->program();
    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    const double d = mc.generics.count("d") ? mc.generics.at("d") : 1e-3;
    for (const double s_prev : {0.2 * d, -2.0 * d}) {
      DVector x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = 0.7 - 0.23 * static_cast<double>(i);
      std::vector<DdtSiteState> ddt(static_cast<std::size_t>(prog.ddt_sites));
      std::vector<IntegSiteState> integ(static_cast<std::size_t>(prog.integ_sites));
      for (std::size_t i = 0; i < ddt.size(); ++i) ddt[i] = {0.31 + 0.1 * i, -4.5e3};
      for (auto& s : integ) s = {0.0, s_prev, 1.7e-3};
      for (const HdlPass pass : {HdlPass::dc, HdlPass::transient, HdlPass::commit}) {
        const std::string what = mc.label + " pass " + std::to_string(static_cast<int>(pass)) +
                                 " s_prev=" + std::to_string(s_prev);
        const std::size_t k = expect_value_only_parity(prog, n, x, pass, ddt, integ, what);
        if (mc.label == "guarded" && s_prev < 0.0 && pass == HdlPass::commit) {
          EXPECT_EQ(k, 1u) << what;
        }
        fired += k;
      }
    }
  }
  EXPECT_EQ(fired, 1u);  // only the guarded model past its guard
}

/// The kitchen-sink model covers every opcode, min/max/limit on both sides.
TEST(BytecodeValueOnly, BitMatchesGradientRunOnEveryOpcode) {
  for (double v : {-1.7, -0.25, 0.0, 0.4, 2.3}) {
    Circuit ckt;
    const int node = ckt.add_node("n", Nature::electrical);
    ckt.add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                               {node, Circuit::kGround}, HdlExecMode::bytecode));
    ckt.bind_all();
    auto* dev = dynamic_cast<HdlDevice*>(ckt.find_device("XS"));
    ASSERT_NE(dev, nullptr);
    const BytecodeProgram& prog = dev->program();
    const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
    const DVector x(n, v);
    const std::vector<DdtSiteState> ddt(static_cast<std::size_t>(prog.ddt_sites), {0.1, 2.0});
    const std::vector<IntegSiteState> integ(static_cast<std::size_t>(prog.integ_sites));
    for (const HdlPass pass : {HdlPass::dc, HdlPass::transient, HdlPass::commit})
      expect_value_only_parity(prog, n, x, pass, ddt, integ,
                               "v=" + std::to_string(v) + " pass " +
                                   std::to_string(static_cast<int>(pass)));
  }
}

/// Through the solver: the transient's charge harvest, which skips every
/// device that stores no charge (the HDL device, the resistor and the
/// source here), yields the q of the full stamp bit for bit.
TEST(BytecodeValueOnly, ChargeHarvestMatchesFullStamp) {
  for (const auto& mc : regression_models()) {
    auto ckt = build_system(mc, HdlExecMode::bytecode, nullptr);
    ckt->bind_all();
    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    DVector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = 0.45 + 0.05 * static_cast<double>(i);
    spice::NewtonOptions nopts;
    nopts.sparse_threshold = std::numeric_limits<int>::max();  // dense
    spice::NewtonSolver solver(*ckt, nopts);
    for (const auto mode : {spice::AnalysisMode::dc, spice::AnalysisMode::transient}) {
      spice::EvalCtx ctx;
      ctx.mode = mode;
      ctx.integ_c0 = mode == spice::AnalysisMode::dc ? 0.0 : 1e-5;
      ctx.integ_c1 = mode == spice::AnalysisMode::dc ? 0.0 : 1e-5;
      DVector f1, q1, q2;
      DMatrix jf, jq;
      solver.stamp(ctx, x, f1, q1, jf, jq);
      solver.harvest_charge(ctx, x, q2);
      const std::string what = mc.label + " mode " + std::to_string(static_cast<int>(mode));
      expect_same_bits(q2, q1, what + " q");
    }
  }
}

bool is_stamp(const Insn& in) { return in.op == Op::stamp_flow || in.op == Op::stamp_effort; }

/// The compiled program carries fully resolved metadata: no string parsing
/// or seed scans remain for the VM to do at run time.
TEST(Bytecode, ProgramShape) {
  Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  ckt.add_device(instantiate("XT", stdlib::paper_listing1(), "eletran",
                             {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                             {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt.bind_all();
  auto* dev = dynamic_cast<HdlDevice*>(ckt.find_device("XT"));
  ASSERT_NE(dev, nullptr);
  const BytecodeProgram& p = dev->program();
  EXPECT_EQ(p.entity_name, "eletran");
  EXPECT_EQ(p.ddt_sites, 1);
  EXPECT_EQ(p.integ_sites, 1);
  EXPECT_EQ(p.n_seeds, 2);  // drive node + vel node (grounded pins unseeded)
  EXPECT_FALSE(p.dc_code.empty());
  EXPECT_FALSE(p.tran_code.empty());
  // commit code = the commit slice of the transient statements: no stamp,
  // and each ddt/integ site of tran_code exactly once. On Listing 1 that
  // is the two port reads V and S, integ(S) and ddt(V).
  for (const Insn& in : p.commit_code) EXPECT_FALSE(is_stamp(in));
  for (const Op op : {Op::ddt, Op::integ}) {
    for (const Insn& t : p.tran_code) {
      if (t.op != op) continue;
      const auto uses = std::count_if(p.commit_code.begin(), p.commit_code.end(),
                                      [&](const Insn& c) { return c.op == op && c.b == t.b; });
      EXPECT_EQ(uses, 1) << "site " << t.b;
    }
  }
  EXPECT_EQ(p.commit_code.size(), 4u);
  EXPECT_GE(p.n_regs, p.n_frame);
  for (const Insn& in : p.tran_code) {
    if (in.op == Op::stamp_flow) {
      // Stamp rows resolved to circuit unknowns at compile time.
      EXPECT_TRUE(in.a == drive || in.a == vel || in.a == -1);
    }
  }
}

/// Runs the commit pass of `prog` from the given site states and returns
/// the committed states and the fired ASSERTs.
struct CommitRun {
  std::vector<DdtSiteState> ddt;
  std::vector<IntegSiteState> integ;
  std::vector<std::pair<int, double>> fired;
};
CommitRun run_commit(const BytecodeProgram& prog, const DVector& x, double c0, double c1,
                     std::vector<DdtSiteState> ddt, std::vector<IntegSiteState> integ) {
  CommitRun r{std::move(ddt), std::move(integ), {}};
  BytecodeVm::RunIo io;
  io.x = &x;
  io.pass = HdlPass::commit;
  io.c0 = c0;
  io.c1 = c1;
  io.ddt = &r.ddt;
  io.integ = &r.integ;
  io.fired_asserts = &r.fired;
  BytecodeVm vm(&prog);
  vm.run(io);
  return r;
}

/// The sliced commit stream commits the same ddt/integ site states and fires
/// the same ASSERTs as the full stream, bit for bit, on every regression
/// model plus the collapse model, from site states on both sides of the
/// ASSERT guards and with the step and start_transient coefficients.
TEST(BytecodeCommitSlice, MatchesTheFullStreamOnEveryModel) {
  auto models = regression_models();
  models.push_back({"collapse", kCollapseModel, "ecollapse",
                    {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}});
  std::size_t fired = 0;
  for (const auto& mc : models) {
    auto ckt = build_system(mc, HdlExecMode::bytecode, nullptr);
    ckt->bind_all();
    auto* dev = dynamic_cast<HdlDevice*>(ckt->find_device("XT"));
    ASSERT_NE(dev, nullptr) << mc.label;
    const BytecodeProgram& sliced = dev->program();
    std::vector<int> branches;
    for (const auto& pl : sliced.pairs) branches.push_back(pl.br);
    const BytecodeProgram full =
        compile(dev->model(), {ckt->node("coil"), Circuit::kGround, ckt->node("vel"),
                               Circuit::kGround},
                branches, sliced.seed_unknowns, /*slice=*/false);
    ASSERT_TRUE(std::any_of(full.commit_code.begin(), full.commit_code.end(), is_stamp))
        << mc.label;
    ASSERT_EQ(full.n_regs, sliced.n_regs) << mc.label;
    EXPECT_LT(sliced.commit_code.size(), full.commit_code.size()) << mc.label;
    EXPECT_TRUE(std::none_of(sliced.commit_code.begin(), sliced.commit_code.end(), is_stamp))
        << mc.label;

    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    const double d = mc.generics.count("d") ? mc.generics.at("d") : 1e-3;
    for (const double s_prev : {0.2 * d, -0.5 * d, -2.0 * d}) {
      for (const auto& [c0, c1] : {std::pair{2.5e-6, 2.5e-6}, std::pair{0.0, 1.0}}) {
        DVector x(n);
        for (std::size_t i = 0; i < n; ++i) x[i] = 0.7 - 0.23 * static_cast<double>(i);
        std::vector<DdtSiteState> ddt(static_cast<std::size_t>(full.ddt_sites));
        std::vector<IntegSiteState> integ(static_cast<std::size_t>(full.integ_sites));
        for (std::size_t i = 0; i < ddt.size(); ++i) ddt[i] = {0.31 + 0.1 * i, -4.5e3};
        for (auto& s : integ) s = {0.0, s_prev, 1.7e-3};
        const std::string what = mc.label + " s_prev=" + std::to_string(s_prev) +
                                 " c1=" + std::to_string(c1);
        const CommitRun a = run_commit(full, x, c0, c1, ddt, integ);
        const CommitRun b = run_commit(sliced, x, c0, c1, ddt, integ);
        for (std::size_t i = 0; i < a.ddt.size(); ++i) {
          EXPECT_TRUE(same_bits(b.ddt[i].u_prev, a.ddt[i].u_prev)) << what << " ddt " << i;
          EXPECT_TRUE(same_bits(b.ddt[i].udot_prev, a.ddt[i].udot_prev)) << what << " ddt " << i;
        }
        for (std::size_t i = 0; i < a.integ.size(); ++i) {
          EXPECT_TRUE(same_bits(b.integ[i].s_prev, a.integ[i].s_prev)) << what << " integ " << i;
          EXPECT_TRUE(same_bits(b.integ[i].e_prev, a.integ[i].e_prev)) << what << " integ " << i;
        }
        ASSERT_EQ(b.fired.size(), a.fired.size()) << what;
        for (std::size_t i = 0; i < a.fired.size(); ++i) {
          EXPECT_EQ(b.fired[i].first, a.fired[i].first) << what;
          EXPECT_TRUE(same_bits(b.fired[i].second, a.fired[i].second)) << what;
        }
        fired += a.fired.size();
      }
    }
  }
  EXPECT_GT(fired, 0u);  // the guards were crossed, so the ASSERT path ran
}

}  // namespace
}  // namespace usys::hdl
