// Failure taxonomy end to end: every FailureKind an analysis can report is
// reachable here — through real inputs where possible (timeouts, cancel,
// max_steps, ASSERT) and through the deterministic fault-injection harness
// (USYS_FAULT_INJECT builds) for the paths no ordinary input reaches on
// demand: the DC rescue ladder, step underflow, singular pivots, the codegen
// fallback, and allocation failure inside the sweep isolation boundary.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "common/fault_inject.hpp"
#include "hdl/interpreter.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/sweep.hpp"

namespace usys::spice {
namespace {

class RescueTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

/// 10 V across two 1 k resistors: plain Newton converges in a couple of
/// iterations, so any non-convergence here is injected, never numerical.
int build_divider(Circuit& ckt) {
  const int in = ckt.add_node("in", Nature::electrical);
  const int mid = ckt.add_node("mid", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, 10.0);
  ckt.add<Resistor>("R1", in, mid, 1e3);
  ckt.add<Resistor>("R2", mid, Circuit::kGround, 1e3);
  return mid;
}

/// RC lowpass (tau = 1 ms) for the transient failure paths.
int build_rc(Circuit& ckt) {
  const int in = ckt.add_node("in", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, 1.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, 1e-6);
  return out;
}

// ---------------------------------------------------------------------------
// Real-input failure paths (every build)
// ---------------------------------------------------------------------------

TEST_F(RescueTest, DcTimeoutReportsStructuredFailure) {
  Circuit ckt;
  build_divider(ckt);
  DcOptions opts;
  opts.newton.timeout_ms = 1e-6;  // expired by the first iteration poll
  const OpResult op = api::operating_point(ckt, opts);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.failure.kind, FailureKind::timeout);
  EXPECT_EQ(op.failure.analysis, "dc");
  // A hard stop must not burn time on the rescue ladder.
  EXPECT_EQ(op.failure.rescue_attempts, 0);
  EXPECT_NE(op.failure.detail.find("plain newton"), std::string::npos);
}

TEST_F(RescueTest, CancelTokenStopsDcAsCancelled) {
  Circuit ckt;
  build_divider(ckt);
  CancelToken token;
  token.cancel();  // pre-cancelled: the first poll sees it
  DcOptions opts;
  opts.newton.cancel = &token;
  const OpResult op = api::operating_point(ckt, opts);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.failure.kind, FailureKind::cancelled);
  EXPECT_EQ(op.failure.rescue_attempts, 0);
}

TEST_F(RescueTest, CancelTokenStopsTransient) {
  Circuit ckt;
  build_rc(ckt);
  CancelToken token;
  token.cancel();
  TranOptions opts;
  opts.tstop = 5e-3;
  opts.newton.cancel = &token;
  const TranResult res = api::transient(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure.kind, FailureKind::cancelled);
  EXPECT_EQ(res.failure.analysis, "tran");
  EXPECT_EQ(res.error, res.failure.to_string());
}

TEST_F(RescueTest, MaxStepsCeilingEndsTransientStructurally) {
  Circuit ckt;
  const int out = build_rc(ckt);
  TranOptions opts;
  opts.tstop = 5e-3;
  opts.max_steps = 3;
  const TranResult res = api::transient(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure.kind, FailureKind::max_steps_exceeded);
  EXPECT_NE(res.error.find("max-steps-exceeded"), std::string::npos);
  // The points computed before the ceiling are kept, not discarded.
  EXPECT_FALSE(res.time.empty());
  EXPECT_LE(res.time.size(), 4u);
  EXPECT_NO_THROW(res.sample(res.time.back(), out));
}

TEST_F(RescueTest, MaxStepsZeroDisablesTheCeiling) {
  Circuit ckt;
  build_rc(ckt);
  TranOptions opts;
  opts.tstop = 5e-3;
  opts.max_steps = 0;
  const TranResult res = api::transient(ckt, opts);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_F(RescueTest, FailOnAssertTurnsBoundaryViolationIntoFailure) {
  // A boundary-condition guard that a voltage ramp deterministically
  // violates mid-run (V crosses 1 at t = 0.5 ms). Default policy warns and
  // keeps integrating; with fail_on_assert the run ends with a
  // machine-readable verdict at the offending step.
  const char* model = R"(
ENTITY guard IS
  GENERIC (vmax : analog);
  PIN (a, b : electrical);
END ENTITY guard;
ARCHITECTURE x OF guard IS
  STATE V : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      V := [a, b].v;
      ASSERT vmax - V;
      [a, b].i %= 1e-9*V;
  END RELATION;
END ARCHITECTURE x;
)";
  const auto build = [&model](Circuit& ckt) {
    const int drive = ckt.add_node("drive", Nature::electrical);
    ckt.add<VSource>("V1", drive, Circuit::kGround,
                     std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
                         {0.0, 0.0}, {1e-3, 2.0}, {1.0, 2.0}}));
    ckt.add_device(hdl::instantiate("XG", model, "guard", {{"vmax", 1.0}},
                                    {drive, Circuit::kGround}));
  };
  TranOptions opts;
  opts.tstop = 1e-3;
  opts.fail_on_assert = true;
  {
    Circuit ckt;
    build(ckt);
    const TranResult res = api::transient(ckt, opts);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failure.kind, FailureKind::assert_violation);
    EXPECT_EQ(res.failure.analysis, "tran");
    EXPECT_GT(res.failure.time, 0.0);  // fired mid-run, not at the OP
    EXPECT_LT(res.failure.time, 1e-3);
    EXPECT_FALSE(res.time.empty());    // the prefix up to the violation is kept
    EXPECT_NE(res.error.find("ASSERT"), std::string::npos);
  }
  {
    // Historical default: the same violation only warns; the run completes.
    Circuit ckt;
    build(ckt);
    opts.fail_on_assert = false;
    const TranResult res = api::transient(ckt, opts);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

// ---------------------------------------------------------------------------
// Injected failure paths (USYS_FAULT_INJECT builds)
// ---------------------------------------------------------------------------

#define REQUIRE_FAULT_BUILD() \
  if (!fault::compiled_in()) GTEST_SKIP() << "needs -DUSYS_FAULT_INJECT=ON"

TEST_F(RescueTest, GminSteppingRescuesInjectedStall) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  const int mid = build_divider(ckt);
  fault::arm("newton.stall", 1, 1);  // plain Newton fails; the ladder is clean
  const OpResult op = api::operating_point(ckt);
  ASSERT_TRUE(op.converged) << op.failure.to_string();
  EXPECT_TRUE(op.used_gmin_stepping);
  EXPECT_FALSE(op.used_source_stepping);
  EXPECT_TRUE(op.failure.ok());
  EXPECT_NEAR(op.at(mid), 5.0, 1e-6);
  EXPECT_EQ(fault::fired("newton.stall"), 1);
}

TEST_F(RescueTest, SourceSteppingRescuesWhenGminIsDisabled) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  const int mid = build_divider(ckt);
  DcOptions opts;
  opts.allow_gmin_stepping = false;
  fault::arm("newton.stall", 1, 1);
  const OpResult op = api::operating_point(ckt, opts);
  ASSERT_TRUE(op.converged) << op.failure.to_string();
  EXPECT_TRUE(op.used_source_stepping);
  EXPECT_FALSE(op.used_gmin_stepping);
  EXPECT_NEAR(op.at(mid), 5.0, 1e-6);
}

TEST_F(RescueTest, WholeLadderFailingReportsDivergenceWithRescueCount) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  build_divider(ckt);
  fault::arm("newton.stall", 1, -1);  // every solve stalls, forever
  const OpResult op = api::operating_point(ckt);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.failure.kind, FailureKind::newton_divergence);
  EXPECT_EQ(op.failure.analysis, "dc");
  EXPECT_EQ(op.failure.rescue_attempts, 2);  // gmin stepping AND source stepping tried
  EXPECT_NE(op.failure.detail.find("source stepping"), std::string::npos);
}

TEST_F(RescueTest, DisabledLadderFailsWithoutRescueAttempts) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  build_divider(ckt);
  DcOptions opts;
  opts.allow_gmin_stepping = false;
  opts.allow_source_stepping = false;
  fault::arm("newton.stall", 1, -1);
  const OpResult op = api::operating_point(ckt, opts);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.failure.rescue_attempts, 0);
  EXPECT_NE(op.failure.detail.find("plain newton"), std::string::npos);
}

TEST_F(RescueTest, PersistentStallDrivesTransientStepUnderflow) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  build_rc(ckt);
  // Hit 1 is the initial operating point's plain-Newton solve (succeeds);
  // every transient step solve after it stalls, so the stepper halves h
  // until it falls below dt_min.
  fault::arm("newton.stall", 2, -1);
  TranOptions opts;
  opts.tstop = 5e-3;
  const TranResult res = api::transient(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure.kind, FailureKind::step_underflow);
  EXPECT_EQ(res.failure.analysis, "tran");
  EXPECT_NE(res.failure.detail.find("dt_min"), std::string::npos);
  EXPECT_GT(res.rejected_steps, 0);
}

TEST_F(RescueTest, InjectedDeadlineExpiryTimesOutWithoutWaiting) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  build_rc(ckt);
  TranOptions opts;
  opts.tstop = 5e-3;
  opts.newton.timeout_ms = 3.6e6;  // an hour — only the injection can expire it
  fault::arm("deadline.expire", 1, -1);
  const TranResult res = api::transient(ckt, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failure.kind, FailureKind::timeout);
  EXPECT_EQ(res.failure.analysis, "tran");
  EXPECT_GE(fault::fired("deadline.expire"), 1);
}

TEST_F(RescueTest, InjectedDenseSingularityReportsSingularMatrix) {
  REQUIRE_FAULT_BUILD();
  Circuit ckt;
  build_divider(ckt);  // small n: the dense backend is selected
  fault::arm("dense_lu.singular", 1, -1);
  const OpResult op = api::operating_point(ckt);
  EXPECT_FALSE(op.converged);
  EXPECT_FALSE(op.used_sparse);
  EXPECT_EQ(op.failure.kind, FailureKind::singular_matrix);
  EXPECT_EQ(op.failure.rescue_attempts, 2);  // the ladder ran and failed too
}

TEST_F(RescueTest, InjectedSparseSingularityReportsSingularMatrix) {
  REQUIRE_FAULT_BUILD();
  // A resistor chain long enough for the sparse backend.
  Circuit ckt;
  std::vector<int> nodes;
  for (int i = 0; i < 16; ++i)
    nodes.push_back(ckt.add_node("n" + std::to_string(i), Nature::electrical));
  ckt.add<VSource>("V1", nodes[0], Circuit::kGround, 1.0);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
    ckt.add<Resistor>("R" + std::to_string(i), nodes[i], nodes[i + 1], 100.0);
  ckt.add<Resistor>("Rend", nodes.back(), Circuit::kGround, 100.0);
  DcOptions opts;
  opts.newton.sparse_threshold = 0;  // sparse
  {
    // Sanity: this circuit really runs on the sparse path when unarmed.
    const OpResult probe = api::operating_point(ckt, opts);
    ASSERT_TRUE(probe.converged);
    if (!probe.used_sparse) GTEST_SKIP() << "sparse backend unavailable here";
  }
  fault::arm("sparse_lu.singular", 1, -1);
  const OpResult op = api::operating_point(ckt, opts);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.failure.kind, FailureKind::singular_matrix);
}

TEST_F(RescueTest, InjectedAllocFailureIsIsolatedPerSweepPoint) {
  REQUIRE_FAULT_BUILD();
  std::vector<SweepPoint> grid(2);
  grid[0].params = {{"k", 1.0}};
  grid[1].params = {{"k", 2.0}};
  fault::arm("engine.alloc", 1, 1);  // only the first run_tran throws
  const SweepRunner runner(1);
  const auto results = runner.run(grid, [](const SweepPoint& p) {
    Circuit ckt;
    const int out = build_rc(ckt);
    TranOptions opts;
    opts.tstop = 1e-3;
    const TranResult res = api::transient(ckt, opts);
    SweepOutcome o;
    o.ok = res.ok;
    o.error = res.error;
    o.failure = res.failure;
    if (res.ok) o.metrics = {{"vout", res.sample(1e-3, out) * p.value("k")}};
    return o;
  });
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].failure.kind, FailureKind::alloc_failure);
  EXPECT_EQ(results[0].error, "allocation failure");
  EXPECT_TRUE(results[1].ok) << results[1].error;  // the batch survived
}

TEST_F(RescueTest, InjectedCompileFailureFallsBackToBytecodeVm) {
  REQUIRE_FAULT_BUILD();
  const char* model = R"(
ENTITY rmod IS
  GENERIC (g : analog);
  PIN (a, b : electrical);
END ENTITY rmod;
ARCHITECTURE x OF rmod IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= g*[a, b].v;
  END RELATION;
END ARCHITECTURE x;
)";
  Circuit ckt;
  const int n = ckt.add_node("n", Nature::electrical);
  ckt.add<ISource>("I1", Circuit::kGround, n, 1e-3);
  auto dev = hdl::instantiate("XR", model, "rmod", {{"g", 1e-3}}, {n, Circuit::kGround},
                              hdl::HdlExecMode::codegen);
  const hdl::HdlDevice* raw = dev.get();
  ckt.add_device(std::move(dev));
  fault::arm("codegen.compile", 1, -1);
  TranOptions opts;
  opts.tstop = 1e-4;
  const TranResult res = api::transient(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;                 // the VM fallback carried the run
  EXPECT_FALSE(raw->codegen_active());              // ...and codegen never engaged
  EXPECT_GE(fault::fired("codegen.compile"), 1);    // the site was really reached
  EXPECT_NEAR(res.sample(1e-4, n), 1.0, 1e-6);      // 1 mA / 1 mS
}

}  // namespace
}  // namespace usys::spice
