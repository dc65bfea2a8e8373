// AnalysisEngine coverage: DC/TRAN/AC parity between one engine reused
// across analyses and the fresh-engine-per-call api:: free functions at
// 1e-12 on the relay pull-in and interpreted-HDL circuits; rebind() after
// device-parameter changes; and the SweepRunner batch path, including its
// process-lifetime worker pool.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "api/api.hpp"
#include "core/netlist_ext.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"
#include "spice/sweep.hpp"

namespace usys::spice {
namespace {

using CircuitBuilder = std::function<std::unique_ptr<Circuit>()>;

double rel_diff(const DVector& a, const DVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

// --- circuits (mirroring tests/spice/test_sparse_vs_dense.cpp) --------------

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

std::unique_ptr<Circuit> hdl_resonator() {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  ckt->add<VSource>("V1", drive, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 10.0, 0.0, 1e-4, 1e-4, 0.05),
                    Nature::electrical, /*ac_mag=*/1.0);
  ckt->add_device(hdl::instantiate(
      "XT", hdl::stdlib::paper_listing1(), "eletran",
      {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt->add<Mass>("M1", vel, 1e-4);
  ckt->add<Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<Damper>("D1", vel, Circuit::kGround, 40e-3);
  return ckt;
}

/// "prefix<i>" without the const char* + temporary-string operator+ overload
/// (GCC 12's -Wrestrict false-positives on that exact pattern at -O3).
std::string tag(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// N-element transverse-transducer array below pull-in, all electrical
/// ports on a shared bus.
std::unique_ptr<Circuit> transducer_array(int elements) {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  ckt->add<VSource>("V1", drive, Circuit::kGround, 2.0);
  core::TransducerGeometry g;
  g.area = 1e-8;
  g.eps_r = 1.0;
  for (int i = 0; i < elements; ++i) {
    const int mech = ckt->add_node(tag("v", i), Nature::mechanical_translation);
    g.gap = 2e-6 * (1.0 + 0.1 * (elements > 1 ? 2.0 * i / (elements - 1) - 1.0 : 0.0));
    ckt->add<core::TransverseElectrostatic>(tag("XT", i), drive, Circuit::kGround, mech,
                                            Circuit::kGround, g);
    ckt->add<Mass>(tag("M", i), mech, 1e-9);
    ckt->add<Spring>(tag("K", i), mech, Circuit::kGround, 25.0);
    ckt->add<Damper>(tag("D", i), mech, Circuit::kGround, 1e-4);
  }
  return ckt;
}

TranOptions tran_opts(double tstop, double dt) {
  TranOptions opts;
  opts.tstop = tstop;
  opts.dt_init = dt;
  opts.dt_max = dt;
  opts.adaptive = false;
  return opts;
}

// --- reused engine vs fresh engine per call ---------------------------------

/// One engine reused across op -> tran -> ac must reproduce the fresh
/// engine-per-call results to 1e-12.
void expect_engine_parity(const CircuitBuilder& build, double tstop, double dt,
                          bool with_ac) {
  const TranOptions topts = tran_opts(tstop, dt);
  AcOptions aopts;
  aopts.points = 10;

  auto ckt_legacy_op = build();
  const OpResult op_legacy = api::operating_point(*ckt_legacy_op);
  auto ckt_legacy_tran = build();
  const TranResult tran_legacy = api::transient(*ckt_legacy_tran, topts);

  auto ckt_engine = build();
  AnalysisEngine engine(*ckt_engine);
  const OpResult op_engine = engine.run_op();
  ASSERT_TRUE(op_legacy.converged);
  ASSERT_TRUE(op_engine.converged);
  EXPECT_LT(rel_diff(op_legacy.x, op_engine.x), 1e-12);

  const TranResult tran_engine = engine.run_tran(topts);
  ASSERT_TRUE(tran_legacy.ok) << tran_legacy.error;
  ASSERT_TRUE(tran_engine.ok) << tran_engine.error;
  ASSERT_EQ(tran_legacy.time.size(), tran_engine.time.size());
  double worst = 0.0;
  for (std::size_t k = 0; k < tran_legacy.x.size(); ++k)
    worst = std::max(worst, rel_diff(tran_legacy.x[k], tran_engine.x[k]));
  EXPECT_LT(worst, 1e-12);

  if (with_ac) {
    auto ckt_legacy_ac = build();
    const AcResult ac_legacy = api::ac_sweep(*ckt_legacy_ac, aopts);
    const AcResult ac_engine = engine.run_ac(aopts);
    ASSERT_TRUE(ac_legacy.ok) << ac_legacy.error;
    ASSERT_TRUE(ac_engine.ok) << ac_engine.error;
    ASSERT_EQ(ac_legacy.freq.size(), ac_engine.freq.size());
    for (std::size_t k = 0; k < ac_legacy.x.size(); ++k) {
      for (std::size_t i = 0; i < ac_legacy.x[k].size(); ++i) {
        const double scale = std::max(
            {std::abs(ac_legacy.x[k][i]), std::abs(ac_engine.x[k][i]), 1e-12});
        EXPECT_LT(std::abs(ac_legacy.x[k][i] - ac_engine.x[k][i]) / scale, 1e-12)
            << "f=" << ac_legacy.freq[k] << " unknown=" << i;
      }
    }
  }
}

TEST(AnalysisEngine, ParityRelayPullIn) {
  expect_engine_parity([] { return relay(6.0); }, 1e-2, 2e-5, /*with_ac=*/false);
}

TEST(AnalysisEngine, ParityHdlListing1) {
  expect_engine_parity([] { return hdl_resonator(); }, 5e-3, 5e-5, /*with_ac=*/true);
}

TEST(AnalysisEngine, ReportsPerRunSymbolicFactorizations) {
  auto ckt = transducer_array(30);
  AnalysisEngine engine(*ckt);
  DcOptions opts;
  opts.newton.sparse_threshold = 0;  // sparse
  const OpResult first = engine.run_op(opts);
  ASSERT_TRUE(first.converged);
  EXPECT_TRUE(first.used_sparse);
  EXPECT_EQ(first.symbolic_factorizations, 1);
  // A warm engine replays the recorded pivot order: 0 NEW symbolic runs.
  const OpResult second = engine.run_op(opts);
  ASSERT_TRUE(second.converged);
  EXPECT_EQ(second.symbolic_factorizations, 0);
  EXPECT_LT(rel_diff(first.x, second.x), 1e-15);
}

TEST(AnalysisEngine, RebindPicksUpParameterChanges) {
  auto ckt = relay(6.0);
  AnalysisEngine engine(*ckt);
  ASSERT_TRUE(engine.run_op().converged);

  auto* xd = dynamic_cast<core::ElectromagneticTransducer*>(ckt->find_device("Xrel"));
  ASSERT_NE(xd, nullptr);
  xd->set_initial_displacement(-0.05e-3);
  engine.rebind();
  const OpResult changed = engine.run_op();
  ASSERT_TRUE(changed.converged);

  // Fresh circuit with the same parameter must agree exactly.
  auto ckt_ref = relay(6.0);
  auto* xd_ref =
      dynamic_cast<core::ElectromagneticTransducer*>(ckt_ref->find_device("Xrel"));
  ASSERT_NE(xd_ref, nullptr);
  xd_ref->set_initial_displacement(-0.05e-3);
  const OpResult ref = api::operating_point(*ckt_ref);
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(rel_diff(changed.x, ref.x), 1e-12);
}

TEST(AnalysisEngine, RebindKeepsTheSolverAndPivotsAfresh) {
  // A parameter rebind keeps the solver's buffers (warm() holds) but drops
  // its pivot order: the next run searches pivots once, as a fresh solver
  // does, and agrees bit for bit with a fresh engine; cool() sheds it all.
  const auto build = [](double r) {
    auto ckt = std::make_unique<Circuit>();
    const int in = ckt->add_node("in", Nature::electrical);
    ckt->add<VSource>("V1", in, Circuit::kGround, 1.0);
    int prev = in;
    for (int i = 0; i < 8; ++i) {
      const int node = ckt->add_node(tag("n", i), Nature::electrical);
      ckt->add<Resistor>(tag("R", i), prev, node, r);
      prev = node;
    }
    ckt->add<Resistor>("Rend", prev, Circuit::kGround, r);
    return ckt;
  };
  DcOptions opts;
  opts.newton.sparse_threshold = 0;  // sparse: the pivot order is real state
  auto ckt = build(1e3);
  AnalysisEngine engine(*ckt);
  ASSERT_TRUE(engine.run_op(opts).converged);

  ASSERT_TRUE(ckt->find_device("R3")->set_param("r", 5e3));
  engine.rebind();
  EXPECT_TRUE(engine.warm());
  const OpResult changed = engine.run_op(opts);
  ASSERT_TRUE(changed.converged);
  EXPECT_EQ(changed.symbolic_factorizations, 1);

  auto fresh_ckt = build(1e3);
  ASSERT_TRUE(fresh_ckt->find_device("R3")->set_param("r", 5e3));
  const OpResult fresh = AnalysisEngine(*fresh_ckt).run_op(opts);
  ASSERT_TRUE(fresh.converged);
  EXPECT_EQ(changed.x, fresh.x);

  engine.cool();
  EXPECT_FALSE(engine.warm());
  const OpResult rewarmed = engine.run_op(opts);
  ASSERT_TRUE(rewarmed.converged);
  EXPECT_EQ(rewarmed.x, fresh.x);
}

TEST(AnalysisEngine, RebindRechecksParameterLint) {
  // A zero stiffness builds (L = 1/k = inf) but the parameter lint rejects
  // it. Set through set_param on a warm engine, the next run must reject it
  // with the same verdict a cold engine gives, and recover once restored.
  const auto build = [](double k) {
    auto ckt = std::make_unique<Circuit>();
    const int a = ckt->add_node("a", Nature::electrical);
    const int v = ckt->add_node("v", Nature::mechanical_translation);
    ckt->add<VSource>("V1", a, Circuit::kGround, 1.0);
    ckt->add<Resistor>("R1", a, Circuit::kGround, 1e3);
    ckt->add<Mass>("M1", v, 1e-4);
    ckt->add<Spring>("K1", v, Circuit::kGround, k);
    ckt->add<Damper>("D1", v, Circuit::kGround, 0.04);
    return ckt;
  };
  auto ckt = build(200.0);
  AnalysisEngine engine(*ckt);
  ASSERT_TRUE(engine.run_op().converged);

  ASSERT_TRUE(ckt->find_device("K1")->set_param("k", 0.0));
  engine.rebind();
  const OpResult rejected = engine.run_op();
  EXPECT_FALSE(rejected.converged);
  EXPECT_EQ(rejected.failure.kind, FailureKind::lint_rejected);

  auto cold_ckt = build(0.0);
  AnalysisEngine cold(*cold_ckt);
  const OpResult want = cold.run_op();
  EXPECT_EQ(rejected.failure.to_string(), want.failure.to_string());
  EXPECT_EQ(engine.preflight().to_text(), cold.preflight().to_text());

  ASSERT_TRUE(ckt->find_device("K1")->set_param("k", 200.0));
  engine.rebind();
  EXPECT_TRUE(engine.run_op().converged);
  EXPECT_FALSE(engine.preflight().has_errors());
}

// --- sweep runner ------------------------------------------------------------

TEST(SweepRunner, GridIsCartesianLastAxisFastest) {
  const auto grid = sweep_grid({SweepAxis::linspace("a", 0.0, 1.0, 2),
                                SweepAxis::linspace("b", 10.0, 30.0, 3)});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_DOUBLE_EQ(grid[0].value("a"), 0.0);
  EXPECT_DOUBLE_EQ(grid[0].value("b"), 10.0);
  EXPECT_DOUBLE_EQ(grid[1].value("b"), 20.0);
  EXPECT_DOUBLE_EQ(grid[2].value("b"), 30.0);
  EXPECT_DOUBLE_EQ(grid[3].value("a"), 1.0);
  EXPECT_DOUBLE_EQ(grid[3].value("b"), 10.0);
  EXPECT_THROW(grid[0].value("missing"), std::out_of_range);
}

TEST(SweepRunner, ParallelGridMatchesAnalyticResults) {
  // 4 x 4 = 16-point grid over a resistive divider: vout = vin * r2/(r1+r2).
  const auto grid = sweep_grid({SweepAxis::linspace("vin", 1.0, 4.0, 4),
                                SweepAxis::linspace("r2", 1e3, 4e3, 4)});
  ASSERT_EQ(grid.size(), 16u);

  SweepRunner runner(4);
  const auto results = runner.run(grid, [](const SweepPoint& p) {
    auto ckt = std::make_unique<Circuit>();
    const int in = ckt->add_node("in", Nature::electrical);
    const int mid = ckt->add_node("mid", Nature::electrical);
    ckt->add<VSource>("V1", in, Circuit::kGround, p.value("vin"));
    ckt->add<Resistor>("R1", in, mid, 1e3);
    ckt->add<Resistor>("R2", mid, Circuit::kGround, p.value("r2"));
    AnalysisEngine engine(*ckt);
    const OpResult op = engine.run_op();
    SweepOutcome out;
    out.ok = op.converged;
    out.metrics.emplace_back("vout", op.at(mid));
    return out;
  });

  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << "point " << i;
    const double vin = grid[i].value("vin");
    const double r2 = grid[i].value("r2");
    EXPECT_NEAR(results[i].metrics[0].second, vin * r2 / (1e3 + r2), 1e-6)
        << "point " << i;
  }
}

TEST(SweepRunner, JobExceptionFailsOnlyThatPoint) {
  const auto grid = sweep_grid({SweepAxis::linspace("k", 0.0, 3.0, 4)});
  SweepRunner runner(2);
  const auto results = runner.run(grid, [](const SweepPoint& p) {
    if (p.value("k") == 2.0) throw std::runtime_error("boom at k=2");
    SweepOutcome out;
    out.ok = true;
    out.metrics.emplace_back("k2", p.value("k") * p.value("k"));
    return out;
  });
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_TRUE(results[1].ok);
  EXPECT_FALSE(results[2].ok);
  EXPECT_EQ(results[2].error, "boom at k=2");
  EXPECT_TRUE(results[3].ok);
  EXPECT_DOUBLE_EQ(results[3].metrics[0].second, 9.0);
}

// --- the shared worker pool behind SweepRunner ------------------------------

/// Points this thread has run over its lifetime: a fresh thread reads 0.
thread_local int t_points_run = 0;

struct PoolRun {
  std::set<std::thread::id> ids;  ///< threads that ran a point
  int fresh = 0;                  ///< points run by a thread that had run none before
};

/// Runs `points` points `threads` wide and records which threads ran them.
/// With `gather`, every point waits (up to 10 s) until `threads` points are
/// in flight at once, so each of the `threads` workers runs exactly one.
PoolRun pool_run(int threads, int points, bool gather) {
  const auto grid = sweep_grid({SweepAxis::linspace("i", 0.0, points - 1.0, points)});
  PoolRun run;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  const auto results = SweepRunner(threads).run(grid, [&](const SweepPoint& p) {
    std::unique_lock<std::mutex> lock(mu);
    run.ids.insert(std::this_thread::get_id());
    if (t_points_run++ == 0) ++run.fresh;
    if (gather) {
      ++arrived;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return arrived >= threads; });
    }
    SweepOutcome out;
    out.ok = true;
    out.metrics.emplace_back("i", p.value("i"));
    return out;
  });
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].metrics.at(0).second, static_cast<double>(i));
  return run;
}

TEST(SweepRunner, WorkersOutliveTheBatch) {
  const PoolRun first = pool_run(4, 4, true);
  const PoolRun second = pool_run(4, 4, true);
  EXPECT_EQ(first.ids.size(), 4u);
  EXPECT_EQ(second.ids, first.ids);
  EXPECT_EQ(second.fresh, 0);  // every thread kept its thread_locals
}

TEST(SweepRunner, NarrowCallUsesOnlyItsWidth) {
  const PoolRun wide = pool_run(4, 4, true);  // the pool is at least 4 wide now
  const PoolRun narrow = pool_run(2, 64, false);
  EXPECT_LE(narrow.ids.size(), 2u);
  for (const auto& id : narrow.ids) EXPECT_EQ(wide.ids.count(id), 1u);
}

TEST(SweepRunner, RunInsideAJobCompletesInline) {
  const auto outer = sweep_grid({SweepAxis::linspace("a", 0.0, 3.0, 4)});
  const auto inner = sweep_grid({SweepAxis::linspace("b", 0.0, 15.0, 16)});
  const auto results = SweepRunner(4).run(outer, [&](const SweepPoint& p) {
    const auto nested = SweepRunner(4).run(inner, [&](const SweepPoint& q) {
      SweepOutcome out;
      out.ok = true;
      out.metrics.emplace_back("ab", 100.0 * p.value("a") + q.value("b"));
      return out;
    });
    SweepOutcome out;
    out.ok = nested.size() == inner.size();
    for (std::size_t i = 0; i < nested.size(); ++i)
      out.ok = out.ok && nested[i].metrics.at(0).second == 100.0 * p.value("a") + i;
    return out;
  });
  ASSERT_EQ(results.size(), outer.size());
  for (const auto& r : results) EXPECT_TRUE(r.ok);
}

TEST(SweepRunner, ConcurrentCallersGetTheirOwnOrderedResults) {
  const auto run_from = [](double base, std::vector<SweepOutcome>& results) {
    const auto grid = sweep_grid({SweepAxis::linspace("v", base, base + 199.0, 200)});
    results = SweepRunner(4).run(grid, [](const SweepPoint& p) {
      SweepOutcome out;
      out.ok = true;
      out.metrics.emplace_back("v2", p.value("v") * 2.0);
      return out;
    });
  };
  std::vector<SweepOutcome> a;
  std::vector<SweepOutcome> b;
  std::thread ta(run_from, 0.0, std::ref(a));
  std::thread tb(run_from, 1000.0, std::ref(b));
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(b.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a[i].metrics.at(0).second, 2.0 * static_cast<double>(i));
    EXPECT_EQ(b[i].metrics.at(0).second, 2.0 * (1000.0 + static_cast<double>(i)));
  }
}

}  // namespace
}  // namespace usys::spice
