// Native-codegen executor (HdlExecMode::codegen): parity against the
// bytecode VM and the AST oracle at 1e-12 across DC, transient, and AC on
// every regression model (stdlib + guarded), the min/max/limit gradient
// selection, and the ASSERT-on-commit path; plus the failure-path contract —
// compiler missing, compile error, or a corrupt cached object must fall back
// to the VM with a warning, never crash — and the content-hash disk cache
// semantics (reuse across processes, invalidation when the model changes).
//
// Tests that exercise real compilation skip cleanly when the host has no
// working compiler (codegen::compiler_available()), so the suite also runs
// on stripped-down images — the fallback tests run everywhere.
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "api/api.hpp"
#include "common/log.hpp"
#include "core/netlist_ext.hpp"
#include "hdl/codegen.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"

namespace usys::hdl {
namespace {

namespace fs = std::filesystem;
using spice::Circuit;

constexpr double kTol = 1e-12;

void expect_close(double a, double b, const std::string& what) {
  EXPECT_NEAR(a, b, kTol * std::max(1.0, std::abs(b))) << what;
}

bool have_compiler() { return codegen::compiler_available(); }

/// Scoped codegen environment: private cache dir, clean registry/stats, and
/// full restoration (default compiler + cache dir) on exit, so cache and
/// fallback tests never leak state into the parity tests.
class CodegenEnv {
 public:
  explicit CodegenEnv(const std::string& tag) {
    dir_ = fs::temp_directory_path() / ("usys_codegen_test_" + tag);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    codegen::set_cache_dir(dir_.string());
    codegen::reset_for_test();
  }
  ~CodegenEnv() {
    codegen::set_compiler("");
    codegen::set_cache_dir("");
    codegen::reset_for_test();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& dir() const { return dir_; }

 private:
  fs::path dir_;
};

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

/// Every function and operator the executors support, in one model.
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

/// Same Fig. 3-style drive harness as test_bytecode.cpp, one transducer into
/// a mass-spring-damper port, with an AC-capable source.
std::unique_ptr<Circuit> build_system(const ModelCase& mc, HdlExecMode mode,
                                      int* disp_out) {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int coil = ckt->add_node("coil", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  const int disp = ckt->add_node("disp", Nature::mechanical_translation);
  ckt->add<spice::VSource>(
      "V1", drive, Circuit::kGround,
      std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {5e-3, 8.0}, {1.0, 8.0}}),
      Nature::electrical, 1.0);
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

HdlDevice* hdl_of(Circuit& ckt, const char* name = "XT") {
  return dynamic_cast<HdlDevice*>(ckt.find_device(name));
}

// --- parity ------------------------------------------------------------------

TEST(CodegenParity, DcAgreesAcrossAllModels) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  for (const auto& mc : regression_models()) {
    auto ast = build_system(mc, HdlExecMode::ast, nullptr);
    auto cg = build_system(mc, HdlExecMode::codegen, nullptr);
    const auto ra = api::operating_point(*ast);
    const auto rc = api::operating_point(*cg);
    ASSERT_TRUE(ra.converged) << mc.label;
    ASSERT_TRUE(rc.converged) << mc.label;
    ASSERT_TRUE(hdl_of(*cg)->codegen_active()) << mc.label;
    ASSERT_EQ(ra.x.size(), rc.x.size()) << mc.label;
    for (std::size_t i = 0; i < ra.x.size(); ++i)
      expect_close(rc.x[i], ra.x[i], mc.label + " dc unknown " + std::to_string(i));
  }
}

TEST(CodegenParity, TransientAgreesAcrossAllModels) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  spice::TranOptions opts;
  opts.tstop = 20e-3;
  opts.dt_max = 1e-4;
  for (const auto& mc : regression_models()) {
    int disp_b = -1, disp_c = -1;
    auto vm = build_system(mc, HdlExecMode::bytecode, &disp_b);
    auto cg = build_system(mc, HdlExecMode::codegen, &disp_c);
    const auto rb = api::transient(*vm, opts);
    const auto rc = api::transient(*cg, opts);
    ASSERT_TRUE(rb.ok) << mc.label << ": " << rb.error;
    ASSERT_TRUE(rc.ok) << mc.label << ": " << rc.error;
    // The generated arithmetic mirrors the VM op for op (and the objects are
    // built with -ffp-contract=off), so even the adaptive step sequence
    // matches exactly.
    EXPECT_EQ(rb.time.size(), rc.time.size()) << mc.label;
    for (double t : {2e-3, 5e-3, 10e-3, 20e-3}) {
      expect_close(rc.sample(t, disp_c), rb.sample(t, disp_b),
                   mc.label + " tran disp at t=" + std::to_string(t));
    }
    ASSERT_EQ(rb.x.back().size(), rc.x.back().size()) << mc.label;
    for (std::size_t i = 0; i < rb.x.back().size(); ++i)
      expect_close(rc.x.back()[i], rb.x.back()[i],
                   mc.label + " tran final unknown " + std::to_string(i));
  }
}

TEST(CodegenParity, AcAgreesAcrossAllModels) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  spice::AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e4;
  opts.points = 5;  // per decade
  for (const auto& mc : regression_models()) {
    auto ast = build_system(mc, HdlExecMode::ast, nullptr);
    auto cg = build_system(mc, HdlExecMode::codegen, nullptr);
    const auto ra = api::ac_sweep(*ast, opts);
    const auto rc = api::ac_sweep(*cg, opts);
    ASSERT_TRUE(ra.ok) << mc.label << ": " << ra.error;
    ASSERT_TRUE(rc.ok) << mc.label << ": " << rc.error;
    ASSERT_EQ(ra.freq.size(), rc.freq.size()) << mc.label;
    for (std::size_t k = 0; k < ra.freq.size(); ++k) {
      for (std::size_t i = 0; i < ra.x[k].size(); ++i) {
        expect_close(rc.x[k][i].real(), ra.x[k][i].real(),
                     mc.label + " ac re, f=" + std::to_string(ra.freq[k]));
        expect_close(rc.x[k][i].imag(), ra.x[k][i].imag(),
                     mc.label + " ac im, f=" + std::to_string(ra.freq[k]));
      }
    }
  }
}

/// Stamp-level parity at a fixed iterate across all three executors: f, Jf,
/// and the jq extraction entry for entry (dense oracle path).
TEST(CodegenParity, StampAndJqExtractionMatchEntrywise) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  for (const auto& mc : regression_models()) {
    auto ckt = build_system(mc, HdlExecMode::codegen, nullptr);
    ckt->bind_all();
    auto* dev = hdl_of(*ckt);
    ASSERT_NE(dev, nullptr) << mc.label;
    ASSERT_TRUE(dev->codegen_active()) << mc.label;
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
    DVector fa, fc;
    DMatrix jfa, jfc, jqa, jqc;
    stamp_with(HdlExecMode::ast, fa, jfa, jqa);
    stamp_with(HdlExecMode::codegen, fc, jfc, jqc);
    for (std::size_t r = 0; r < n; ++r) {
      expect_close(fc[r], fa[r], mc.label + " f row " + std::to_string(r));
      for (std::size_t c = 0; c < n; ++c) {
        expect_close(jfc(r, c), jfa(r, c), mc.label + " jf " + std::to_string(r) +
                                               "," + std::to_string(c));
        expect_close(jqc(r, c), jqa(r, c), mc.label + " jq " + std::to_string(r) +
                                               "," + std::to_string(c));
      }
    }
  }
}

/// min/max/limit gradients follow the active branch in the generated code
/// exactly as in the VM/AST (no blending, switches with the iterate).
TEST(CodegenParity, MinMaxLimitGradientFollowsActiveBranch) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
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
  Circuit ckt;
  const int node = ckt.add_node("n", Nature::electrical);
  ckt.add_device(instantiate("XP", src, "epw", {{"k", 3.0}},
                             {node, Circuit::kGround}, HdlExecMode::codegen));
  ckt.bind_all();
  auto* dev = hdl_of(ckt, "XP");
  ASSERT_TRUE(dev->codegen_active());
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
  EXPECT_NEAR(conductance_at(0.5), 5.5, 1e-12);   // 2V + 0.5V + 3V active
  EXPECT_NEAR(conductance_at(2.0), 0.5, 1e-12);   // min/limit saturated
  EXPECT_NEAR(conductance_at(-3.0), 2.0, 1e-12);  // max/limit saturated
}

TEST(CodegenParity, KitchenSinkStampMatches) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  for (double v : {-1.7, -0.25, 0.0, 0.4, 2.3}) {
    DVector f_ref;
    DMatrix jf_ref;
    bool have_ref = false;
    for (const HdlExecMode mode :
         {HdlExecMode::ast, HdlExecMode::bytecode, HdlExecMode::codegen}) {
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

/// ASSERT fires on committed solutions only, warns once per site, and the
/// collapse trajectory matches the VM's.
TEST(CodegenParity, AssertOnCommitFires) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  const char* collapse = R"(
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
  spice::TranOptions opts;
  opts.tstop = 30e-3;
  std::vector<double> finals;
  for (const HdlExecMode mode : {HdlExecMode::bytecode, HdlExecMode::codegen}) {
    Circuit ckt;
    const int drive = ckt.add_node("drive", Nature::electrical);
    const int vel = ckt.add_node("vel", Nature::mechanical_translation);
    const int disp = ckt.add_node("disp", Nature::mechanical_translation);
    ckt.add<spice::VSource>(
        "V1", drive, Circuit::kGround,
        std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
            {0.0, 0.0}, {1e-3, 60.0}, {1.0, 60.0}}));
    ckt.add_device(instantiate("XT", collapse, "ecollapse",
                               {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                               {drive, Circuit::kGround, vel, Circuit::kGround},
                               mode));
    ckt.add<spice::Mass>("M1", vel, 1e-4);
    ckt.add<spice::Spring>("K1", vel, Circuit::kGround, 0.5);  // soft: pull-in
    ckt.add<spice::Damper>("D1", vel, Circuit::kGround, 40e-3);
    ckt.add<spice::StateIntegrator>("XD", disp, vel);
    const auto res = api::transient(ckt, opts);
    ASSERT_TRUE(res.ok) << res.error;
    auto* dev = hdl_of(ckt);
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->assert_violations(), 1) << "mode " << static_cast<int>(mode);
    finals.push_back(res.sample(30e-3, disp));
  }
  expect_close(finals[1], finals[0], "collapse displacement");
}

// --- sharing / cache ---------------------------------------------------------

/// The emitted source depends only on the model *shape*: instances on
/// different nodes (and with different generic values) share one translation
/// unit, so an array compiles exactly once.
/// The cache keys are pinned: a changed hash would orphan every cached
/// object. A deliberate change to the emitted program (or kVersionTag)
/// moves shape_hash and must update this value.
TEST(CodegenCache, HashesArePinned) {
  Circuit ckt;
  const int a = ckt.add_node("a", Nature::electrical);
  const int va = ckt.add_node("va", Nature::mechanical_translation);
  ckt.add_device(instantiate("X1", stdlib::paper_listing1(), "eletran",
                             {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                             {a, Circuit::kGround, va, Circuit::kGround},
                             HdlExecMode::bytecode));
  ckt.bind_all();
  EXPECT_EQ(codegen::shape_hash(hdl_of(ckt, "X1")->program()), 0x17d42365c81a923bull);
  EXPECT_EQ(codegen::source_hash("eletran"), 0xab6eef7bbf15a4b0ull);
}

TEST(CodegenCache, InstancesShareOneCompilation) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("share");
  Circuit ckt;
  const int a = ckt.add_node("a", Nature::electrical);
  const int b = ckt.add_node("b", Nature::electrical);
  const int va = ckt.add_node("va", Nature::mechanical_translation);
  const int vb = ckt.add_node("vb", Nature::mechanical_translation);
  ckt.add_device(instantiate("X1", stdlib::paper_listing1(), "eletran",
                             {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                             {a, Circuit::kGround, va, Circuit::kGround},
                             HdlExecMode::codegen));
  ckt.add_device(instantiate("X2", stdlib::paper_listing1(), "eletran",
                             {{"A", 2e-4}, {"d", 0.3e-3}, {"er", 2.0}},
                             {b, Circuit::kGround, vb, Circuit::kGround},
                             HdlExecMode::codegen));
  ckt.bind_all();
  EXPECT_TRUE(hdl_of(ckt, "X1")->codegen_active());
  EXPECT_TRUE(hdl_of(ckt, "X2")->codegen_active());
  const auto s = codegen::stats();
  EXPECT_EQ(s.compiles, 1);
  EXPECT_EQ(s.memory_hits, 1);
  EXPECT_EQ(s.failures, 0);
  // And both instances generated byte-identical source.
  EXPECT_EQ(codegen::generate_source(hdl_of(ckt, "X1")->program()),
            codegen::generate_source(hdl_of(ckt, "X2")->program()));
}

/// A second process (simulated by resetting the in-memory registry) loads
/// the object from disk instead of recompiling.
TEST(CodegenCache, DiskCacheReusedWithoutRecompile) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("disk");
  auto build_once = [] {
    Circuit ckt;
    const int n = ckt.add_node("n", Nature::electrical);
    ckt.add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                               {n, Circuit::kGround}, HdlExecMode::codegen));
    ckt.bind_all();
    EXPECT_TRUE(hdl_of(ckt, "XS")->codegen_active());
  };
  build_once();
  EXPECT_EQ(codegen::stats().compiles, 1);
  codegen::reset_for_test();  // forget the in-process registry, keep the disk
  build_once();
  const auto s = codegen::stats();
  EXPECT_EQ(s.compiles, 0);
  EXPECT_EQ(s.disk_hits, 1);
}

/// A warm disk cache needs no compiler: a new process (registry reset)
/// whose compiler is gone still loads the cached object for the shape.
TEST(CodegenCache, WarmDiskCacheLoadsWithoutACompiler) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("warm_nocc");
  auto build_once = [] {
    Circuit ckt;
    const int n = ckt.add_node("n", Nature::electrical);
    ckt.add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                               {n, Circuit::kGround}, HdlExecMode::codegen));
    ckt.bind_all();
    return hdl_of(ckt, "XS")->codegen_active();
  };
  EXPECT_TRUE(build_once());
  EXPECT_EQ(codegen::stats().compiles, 1);
  codegen::reset_for_test();
  codegen::set_compiler("/nonexistent/usys-no-such-compiler");
  EXPECT_TRUE(build_once());
  const auto s = codegen::stats();
  EXPECT_EQ(s.compiles, 0);
  EXPECT_EQ(s.disk_hits, 1);
  EXPECT_EQ(s.failures, 0);
}

/// A corrupt cached object (interrupted writer, toolchain change) must not
/// crash or silently fall back: it is detected at load, removed, and rebuilt.
TEST(CodegenCache, CorruptObjectIsRebuilt) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("corrupt");
  Circuit ckt;
  const int n = ckt.add_node("n", Nature::electrical);
  auto dev = instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                         {n, Circuit::kGround}, HdlExecMode::codegen);
  // Plant garbage where the cache entry will live (the filename is the
  // structural shape hash, derived here from a scratch-bound twin).
  const std::uint64_t hash = [&] {
    Circuit tmp;
    const int tn = tmp.add_node("n", Nature::electrical);
    auto d2 = instantiate("XT", kKitchenSink, "esink", {{"k", 1.0}},
                          {tn, Circuit::kGround}, HdlExecMode::bytecode);
    tmp.add_device(std::move(d2));
    tmp.bind_all();
    return codegen::shape_hash(hdl_of(tmp, "XT")->program());
  }();
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  fs::create_directories(env.dir());
  std::ofstream(env.dir() / (std::string("usys_cg_") + hex + ".so"))
      << "this is not a shared object";
  ckt.add_device(std::move(dev));
  ckt.bind_all();  // load fails -> recompile, not crash/fallback
  EXPECT_TRUE(hdl_of(ckt, "XS")->codegen_active());
  EXPECT_EQ(codegen::stats().compiles, 1);
  EXPECT_EQ(codegen::stats().failures, 0);
}

/// Changing the model source changes the content hash: the stale cached
/// object for the old source is never reused for the new one.
TEST(CodegenCache, SourceChangeInvalidates) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("stale");
  auto build = [](const char* body_gain) {
    std::string src(R"(
ENTITY evar IS
  GENERIC (k : analog);
  PIN (a, b : electrical);
END ENTITY evar;
ARCHITECTURE x OF evar IS
  VARIABLE V : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      V := [a, b].v;
      [a, b].i %= )");
    src += body_gain;
    src += "*V;\n  END RELATION;\nEND ARCHITECTURE x;\n";
    auto ckt = std::make_unique<Circuit>();
    const int n = ckt->add_node("n", Nature::electrical);
    ckt->add_device(instantiate("XV", src, "evar", {{"k", 1.0}},
                                {n, Circuit::kGround}, HdlExecMode::codegen));
    ckt->bind_all();
    return ckt;
  };
  auto c1 = build("1e-3");
  EXPECT_EQ(codegen::stats().compiles, 1);
  auto c2 = build("2e-3");  // edited model -> new hash -> fresh compile
  EXPECT_EQ(codegen::stats().compiles, 2);
  EXPECT_TRUE(hdl_of(*c1, "XV")->codegen_active());
  EXPECT_TRUE(hdl_of(*c2, "XV")->codegen_active());
  // Both conductances must reflect their own source, not a stale object.
  auto g_of = [](Circuit& ckt) {
    const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
    DVector x(n, 0.5), f(n, 0.0), q(n, 0.0);
    DMatrix jf(n, n), jq(n, n);
    spice::EvalCtx ctx;
    ctx.mode = spice::AnalysisMode::transient;
    ctx.integ_c1 = 1e-5;
    ctx.x = &x;
    ctx.f = &f;
    ctx.q = &q;
    ctx.jf = &jf;
    ctx.jq = &jq;
    ckt.find_device("XV")->evaluate(ctx);
    return jf(0, 0);
  };
  EXPECT_NEAR(g_of(*c1), 1e-3, 1e-15);
  EXPECT_NEAR(g_of(*c2), 2e-3, 1e-15);
}

// --- failure paths -----------------------------------------------------------

/// No compiler on the host: codegen degrades to the bytecode VM with one
/// warning, and results are untouched.
TEST(CodegenFallback, MissingCompilerFallsBackToVm) {
  CodegenEnv env("nocc");
  codegen::set_compiler("/nonexistent/usys-no-such-compiler");
  EXPECT_FALSE(codegen::compiler_available());

  auto run_disp = [](HdlExecMode mode) {
    spice::TranOptions opts;
    opts.tstop = 5e-3;
    opts.dt_max = 1e-4;
    ModelCase mc{"listing1", stdlib::paper_listing1(), "eletran",
                 {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}};
    int disp = -1;
    auto ckt = build_system(mc, mode, &disp);
    const auto res = api::transient(*ckt, opts);
    EXPECT_TRUE(res.ok) << res.error;
    if (mode == HdlExecMode::codegen) {
      EXPECT_FALSE(hdl_of(*ckt)->codegen_active());  // fell back
    }
    return res.sample(5e-3, disp);
  };
  const double vm = run_disp(HdlExecMode::bytecode);
  const double cg = run_disp(HdlExecMode::codegen);
  EXPECT_EQ(codegen::stats().failures, 1);
  expect_close(cg, vm, "fallback transient displacement");
}

/// A compiler that accepts the probe but rejects the real translation unit
/// (e.g. broken headers) also degrades cleanly.
TEST(CodegenFallback, CompileErrorFallsBackToVm) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("badcc");
  // Fake compiler: passes the trivial probe through the real one, fails on
  // everything else.
  const fs::path script = env.dir() / "flaky-cxx.sh";
  fs::create_directories(env.dir());
  {
    std::ofstream os(script);
    os << "#!/bin/sh\ncase \"$*\" in\n*usys_cg_probe*) exec c++ \"$@\" ;;\n"
          "*) echo 'synthetic compile error' >&2; exit 1 ;;\nesac\n";
  }
  fs::permissions(script, fs::perms::owner_all);
  codegen::set_compiler(script.string());
  EXPECT_TRUE(codegen::compiler_available());

  Circuit ckt;
  const int n = ckt.add_node("n", Nature::electrical);
  ckt.add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                             {n, Circuit::kGround}, HdlExecMode::codegen));
  ckt.bind_all();  // compile fails -> warning + VM fallback, not a throw
  EXPECT_FALSE(hdl_of(ckt, "XS")->codegen_active());
  EXPECT_EQ(codegen::stats().failures, 1);
  // The device still evaluates (via the VM).
  const auto op = api::operating_point(ckt);
  EXPECT_TRUE(op.converged);
}

/// Fixing the toolchain after a failure clears the per-shape memo: the next
/// bind compiles instead of staying on the VM forever.
TEST(CodegenFallback, FixedCompilerRetriesFailedShapes) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("retry");
  codegen::set_compiler("/nonexistent/usys-no-such-compiler");
  auto bind_one = [] {
    auto ckt = std::make_unique<Circuit>();
    const int n = ckt->add_node("n", Nature::electrical);
    ckt->add_device(instantiate("XS", kKitchenSink, "esink", {{"k", 1.0}},
                                {n, Circuit::kGround}, HdlExecMode::codegen));
    ckt->bind_all();
    return ckt;
  };
  auto broken = bind_one();
  EXPECT_FALSE(hdl_of(*broken, "XS")->codegen_active());
  EXPECT_EQ(codegen::stats().failures, 1);
  codegen::set_compiler("");  // restore the real compiler
  auto fixed = bind_one();
  EXPECT_TRUE(hdl_of(*fixed, "XS")->codegen_active());
  EXPECT_EQ(codegen::stats().compiles, 1);
}

/// The per-shape warning fires once: an array of failing instances does not
/// spam one warning per element (and does not retry the compile each time).
TEST(CodegenFallback, FailureWarnsAndProbesOncePerShape) {
  CodegenEnv env("warn1");
  codegen::set_compiler("/nonexistent/usys-no-such-compiler");
  Circuit ckt;
  const int bus = ckt.add_node("bus", Nature::electrical);
  for (int i = 0; i < 8; ++i) {
    const int vel =
        ckt.add_node("v" + std::to_string(i), Nature::mechanical_translation);
    ckt.add_device(instantiate("X" + std::to_string(i), stdlib::paper_listing1(),
                               "eletran", {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                               {bus, Circuit::kGround, vel, Circuit::kGround},
                               HdlExecMode::codegen));
  }
  ckt.bind_all();
  EXPECT_EQ(codegen::stats().failures, 1);  // one warning for 8 instances
}

// --- concurrency (also in the TSan CI filter) --------------------------------

/// Concurrent acquire of the same shape from many threads: exactly one
/// compile, everyone gets the same entry points, results identical.
TEST(CodegenParallel, ConcurrentAcquireIsRaceFree) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  CodegenEnv env("par");
  constexpr int kThreads = 4;
  std::vector<double> disp(kThreads, 0.0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &disp] {
      ModelCase mc{"listing1", stdlib::paper_listing1(), "eletran",
                   {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}}};
      int d = -1;
      auto ckt = build_system(mc, HdlExecMode::codegen, &d);
      spice::TranOptions opts;
      opts.tstop = 2e-3;
      opts.dt_max = 1e-4;
      const auto res = api::transient(*ckt, opts);
      disp[static_cast<std::size_t>(t)] = res.ok ? res.sample(2e-3, d) : 1e99;
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(codegen::stats().compiles, 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(disp[static_cast<std::size_t>(t)], disp[0]) << "thread " << t;
}

// --- netlist / engine plumbing ----------------------------------------------

/// `.options hdl=` selects the executor for HDL cards; per-card `mode=`
/// overrides; values are validated at parse time.
TEST(CodegenNetlist, OptionsAndCardModeSelectExecutor) {
  auto parser = core::make_full_parser();
  const char* net = R"(* hdl exec mode plumbing
.options hdl=ast
V1 drive 0 2
XA drive 0 va 0 HDLTRANSV a=1e-4 d=2e-6 er=1
XB drive 0 vb 0 HDLTRANSV a=1e-4 d=2e-6 er=1 mode=bytecode
XM va MASS m=1e-9
XN vb MASS m=1e-9
.op
.end
)";
  auto parsed = parser.parse(net);
  auto* xa = dynamic_cast<HdlDevice*>(parsed.circuit->find_device("XA"));
  auto* xb = dynamic_cast<HdlDevice*>(parsed.circuit->find_device("XB"));
  ASSERT_NE(xa, nullptr);
  ASSERT_NE(xb, nullptr);
  EXPECT_EQ(xa->exec_mode(), HdlExecMode::ast);
  EXPECT_EQ(xb->exec_mode(), HdlExecMode::bytecode);

  // set_option (the usim --hdl-mode path) presets the default.
  auto parser2 = core::make_full_parser();
  parser2.set_option("hdl", "codegen");
  auto parsed2 = parser2.parse(
      "V1 d 0 1\nXA d 0 v 0 HDLTRANSV a=1e-4 d=2e-6 er=1\nXM v MASS m=1e-9\n.end\n");
  auto* xc = dynamic_cast<HdlDevice*>(parsed2.circuit->find_device("XA"));
  ASSERT_NE(xc, nullptr);
  EXPECT_EQ(xc->exec_mode(), HdlExecMode::codegen);

  // Bad values are parse errors, with a line number.
  EXPECT_THROW(parser.parse(".options hdl=fast\n"), spice::NetlistError);
  EXPECT_THROW(
      parser.parse("Xh a 0 v 0 HDLTRANSV a=1e-4 d=2e-6 er=1 mode=jit\n.end\n"),
      spice::NetlistError);
  EXPECT_THROW(parser.set_option("hdl", "fast"), spice::NetlistError);

  // Every unregistered parameter key keeps the strict numeric contract —
  // value typos are hard errors, never silent factory defaults.
  EXPECT_THROW(parser.parse("Xm v MASS m=1e--9\n.end\n"), spice::NetlistError);
  EXPECT_THROW(parser.parse("Xm v MASS m=1..5\n.end\n"), spice::NetlistError);
  EXPECT_THROW(
      parser.parse("Xt a 0 v 0 ETRANSV a=1e-8 d=2e-6 er=one\n.end\n"),
      spice::NetlistError);
}

/// A netlist-driven HDL device agrees with the hand-built harness across a
/// full engine run (the AnalysisEngine path usim takes).
TEST(CodegenNetlist, EngineRunMatchesAcrossModes) {
  if (!have_compiler()) GTEST_SKIP() << "no host compiler";
  auto run_mode = [](const char* mode) {
    auto parser = core::make_full_parser();
    parser.set_option("hdl", mode);
    std::string net(R"(* codegen netlist engine run
V1 drive 0 PULSE(0 8 0 1m 1m 20m)
R1 drive coil 50
XT coil 0 vel 0 HDLTRANSV a=1e-4 d=0.15e-3 er=1
XM vel MASS m=1e-4
XK vel 0 SPRING k=200
XB vel 0 DAMPER alpha=40e-3
.tran 1e-5 5e-3
.end
)");
    auto parsed = parser.parse(net);
    spice::AnalysisEngine engine(*parsed.circuit);
    auto card = parsed.analyses.at(0);
    const auto res = engine.run_tran(card.tran);
    EXPECT_TRUE(res.ok) << res.error;
    return res.x.back();
  };
  const auto vm = run_mode("bytecode");
  const auto cg = run_mode("codegen");
  ASSERT_EQ(vm.size(), cg.size());
  for (std::size_t i = 0; i < vm.size(); ++i)
    expect_close(cg[i], vm[i], "engine unknown " + std::to_string(i));
}

}  // namespace
}  // namespace usys::hdl
