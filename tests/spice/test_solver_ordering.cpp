// Sparse LU at the circuit level: the AMD ordering is a pure function of the
// pattern, so two independently built engines give bit-identical DC,
// transient and AC results on the relay and HDL circuits; and AMD's fill on
// the bench topologies is pinned to its absolute factor nonzero count and
// held to an exact minimum-degree baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "core/netlist_ext.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"
#include "../common/min_degree_oracle.hpp"

namespace usys::spice {
namespace {

// --- circuits (mirroring tests/spice/test_engine.cpp) -----------------------

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

std::string tag(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// The bench's transducer star: every element hangs off one drive bus.
std::unique_ptr<Circuit> transducer_star(int elements) {
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

/// bench_solver_scaling's chain topology, sized by unknown count.
std::unique_ptr<Circuit> rc_ladder(int sections) {
  auto ckt = std::make_unique<Circuit>();
  int prev = ckt->add_node("in", Nature::electrical);
  ckt->add<VSource>("V1", prev, Circuit::kGround, 1.0);
  for (int k = 0; k < sections; ++k) {
    const int node = ckt->add_node(tag("n", k), Nature::electrical);
    ckt->add<Resistor>(tag("R", k), prev, node, 1e3);
    ckt->add<Capacitor>(tag("C", k), node, Circuit::kGround, 1e-9);
    prev = node;
  }
  return ckt;
}

/// bench_solver_scaling's mechanical chain: spring-coupled resonators.
std::unique_ptr<Circuit> resonator_array(int count) {
  auto ckt = std::make_unique<Circuit>();
  const int first = ckt->add_node("m0", Nature::mechanical_translation);
  ckt->add<ForceSource>("F1", first, 1e-3);
  int prev = first;
  for (int k = 0; k < count; ++k) {
    const int node =
        k == 0 ? first : ckt->add_node(tag("m", k), Nature::mechanical_translation);
    ckt->add<Mass>(tag("M", k), node, 1e-4);
    ckt->add<Damper>(tag("D", k), node, Circuit::kGround, 1e-2);
    if (k > 0) ckt->add<Spring>(tag("K", k), prev, node, 250.0);
    ckt->add<Spring>(tag("Kg", k), node, Circuit::kGround, 400.0);
    prev = node;
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

// --- ordering determinism ---------------------------------------------------

/// Two engines over two independently built copies of one circuit must agree
/// bit for bit: same AMD column order, same pivots, same DC, transient, and
/// AC results.
void expect_independent_engines_identical(
    const std::function<std::unique_ptr<Circuit>()>& build, double tstop, double dt,
    bool with_ac) {
  DcOptions dc;
  dc.newton.sparse_threshold = 0;  // sparse
  auto ckt_a = build();
  auto ckt_b = build();
  AnalysisEngine eng_a(*ckt_a);
  AnalysisEngine eng_b(*ckt_b);

  const OpResult dc_a = eng_a.run_op(dc);
  const OpResult dc_b = eng_b.run_op(dc);
  ASSERT_TRUE(dc_a.converged);
  ASSERT_TRUE(dc_b.converged);
  EXPECT_TRUE(dc_a.used_sparse);
  EXPECT_EQ(dc_a.x, dc_b.x);

  TranOptions topts = tran_opts(tstop, dt);
  topts.newton.sparse_threshold = 0;
  topts.dc = dc;
  const TranResult tr_a = eng_a.run_tran(topts);
  const TranResult tr_b = eng_b.run_tran(topts);
  ASSERT_TRUE(tr_a.ok) << tr_a.error;
  ASSERT_TRUE(tr_b.ok) << tr_b.error;
  EXPECT_TRUE(tr_a.used_sparse);
  EXPECT_EQ(tr_a.time, tr_b.time);
  EXPECT_EQ(tr_a.x, tr_b.x);

  if (with_ac) {
    AcOptions ac;
    ac.points = 10;
    ac.dc = dc;
    const AcResult ac_a = eng_a.run_ac(ac);
    const AcResult ac_b = eng_b.run_ac(ac);
    ASSERT_TRUE(ac_a.ok) << ac_a.error;
    ASSERT_TRUE(ac_b.ok) << ac_b.error;
    EXPECT_TRUE(ac_a.used_sparse);
    EXPECT_EQ(ac_a.freq, ac_b.freq);
    EXPECT_EQ(ac_a.x, ac_b.x);
  }
}

TEST(SolverOrdering, ParityRelayPullIn) {
  expect_independent_engines_identical([] { return relay(6.0); }, 1e-2, 2e-5,
                                       /*with_ac=*/false);
}

TEST(SolverOrdering, ParityHdlListing1) {
  expect_independent_engines_identical([] { return hdl_resonator(); }, 5e-3, 5e-5,
                                       /*with_ac=*/true);
}

// --- AMD fill on the bench topologies ----------------------------------------

/// L + U nonzeros of one transient-regime Jacobian (backward Euler at
/// dt = 1 us, as in bench_solver_scaling) factored under the AMD ordering.
std::size_t amd_fill(Circuit& ckt) {
  ckt.bind_all();
  const MnaPattern& pattern = ckt.mna_pattern();
  const auto n = static_cast<std::size_t>(ckt.unknown_count());
  NewtonOptions nopts;
  nopts.max_iters = 1;
  nopts.sparse_threshold = 0;
  NewtonSolver solver(ckt, nopts);
  EXPECT_TRUE(solver.sparse_active());
  EvalCtx ctx;
  ctx.mode = AnalysisMode::transient;
  ctx.time = 1e-6;
  ctx.integ_c1 = 1e-6;
  DVector x(n, 0.0), f, q;
  solver.assemble_sparse(ctx, x, f, q);
  const auto& jfv = solver.sparse_jf();
  const auto& jqv = solver.sparse_jq();
  std::vector<double> jac(jfv.size());
  const double a0 = 1e6;
  for (std::size_t k = 0; k < jac.size(); ++k) jac[k] = jfv[k] + a0 * jqv[k];
  DSparseLu lu;
  lu.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
  lu.factor(jac);
  return lu.factor_nonzeros();
}

/// Fill-quality pin: the absolute L + U nonzero counts (both diagonals
/// counted, so zero fill reads nnz + n) AMD reaches on the ~500-unknown
/// chain and star. The chain factors with zero fill (1498 + 500); the star
/// admits one fill entry per element (1504 + 502 + 250). Any ordering
/// change that moves these numbers must be deliberate.
TEST(SolverOrdering, AmdFillPinnedOnBenchTopologies) {
  auto ladder = rc_ladder(498);
  EXPECT_EQ(amd_fill(*ladder), 1998u);
  EXPECT_EQ(ladder->unknown_count(), 500);
  auto star = transducer_star(250);
  EXPECT_EQ(amd_fill(*star), 2256u);
  EXPECT_EQ(star->unknown_count(), 502);
}

/// The acceptance number: on the ~500-unknown bench topologies AMD's
/// elimination order must admit no more symbolic fill than an exact
/// minimum-degree baseline on the same symmetrized MNA pattern.
TEST(SolverOrdering, AmdFillAtMostMinDegreeOnBenchTopologies) {
  const auto expect_amd_at_most_min_degree = [](Circuit& ckt) {
    ckt.bind_all();
    const MnaPattern& pattern = ckt.mna_pattern();
    DSparseLu lu;
    lu.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
    const auto graph =
        test::symmetrized_graph(pattern.size(), pattern.row_ptr(), pattern.col_idx());
    EXPECT_LE(test::elimination_fill(graph, lu.ordering()),
              test::elimination_fill(graph, test::min_degree_order(graph)));
  };
  auto ladder = rc_ladder(498);
  expect_amd_at_most_min_degree(*ladder);
  auto resonators = resonator_array(250);
  expect_amd_at_most_min_degree(*resonators);
  auto star = transducer_star(250);
  expect_amd_at_most_min_degree(*star);
}

}  // namespace
}  // namespace usys::spice
