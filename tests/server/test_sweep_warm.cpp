// Warm⇄cold parity of api::run_sweep_point: a value-only template runs its
// points on the calling thread's warm Session with parameter overrides, and
// every point's SweepOutcome (metrics, error text, failure kind) must be
// bit-identical to the text path — substitute_params, then a fresh parse
// and Session. Covers the Listing 1 HDL Monte Carlo netlist under all three
// HDL executors, batches that reuse or swap the templates workers kept
// from earlier batches, the docs/sweeps.md divider, drawn values the device
// constructors or the parameter lint reject (the warm point must fall back
// and fail exactly like the cold one), and structural templates that must
// never go warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "spice/netlist.hpp"
#include "spice/sweep.hpp"

namespace usys::api {
namespace {

const char kHdlMc[] = R"(* MC: Listing 1 transducer with drawn gap, spring and drive
.param gap dist=normal(0.15m,3u)
.param k dist=normal(200,10)
.param vd dist=uniform(5,15)
V1 drive 0 {vd} AC 1
XT drive 0 vel 0 HDLTRANSV a=1e-4 d={gap} er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k={k}
Xd vel 0 DAMPER alpha=40m
.op
.ac dec 5 10 10k
.end
)";

const char kDivider[] = R"(* tolerance-analysis netlist
V1 in 0 {vd}
R1 in out {r}
R2 out 0 1000
.param r  dist=normal(1k,50)
.param vd dist=uniform(4.5,5.5)
.op
.end
)";

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same(const spice::SweepOutcome& warm, const spice::SweepOutcome& cold,
                 std::size_t i) {
  EXPECT_EQ(warm.ok, cold.ok) << "point " << i;
  EXPECT_EQ(warm.error, cold.error) << "point " << i;
  EXPECT_EQ(warm.failure.kind, cold.failure.kind) << "point " << i;
  EXPECT_EQ(warm.failure.to_string(), cold.failure.to_string()) << "point " << i;
  ASSERT_EQ(warm.metrics.size(), cold.metrics.size()) << "point " << i;
  for (std::size_t m = 0; m < warm.metrics.size(); ++m) {
    EXPECT_EQ(warm.metrics[m].first, cold.metrics[m].first) << "point " << i;
    EXPECT_EQ(bits(warm.metrics[m].second), bits(cold.metrics[m].second))
        << "point " << i << " metric " << warm.metrics[m].first;
  }
}

/// Every point through run_sweep_point on `threads` workers.
std::vector<spice::SweepOutcome> run_warm(const std::string& text,
                                          const std::vector<spice::SweepPoint>& grid,
                                          const std::string& mode, int threads = 1) {
  return spice::SweepRunner(threads).run(grid, [&](const spice::SweepPoint& p) {
    return run_sweep_point(text, p, mode, {}, 0);
  });
}

/// The text path: each point's substituted netlist, which has no
/// placeholders left, parsed and run on a fresh Session of its own.
std::vector<spice::SweepOutcome> run_cold(const std::string& text,
                                          const std::vector<spice::SweepPoint>& grid,
                                          const std::string& mode) {
  return spice::SweepRunner(1).run(grid, [&](const spice::SweepPoint& p) {
    return run_sweep_point(substitute_params(text, p), {}, mode, {}, 0);
  });
}

/// Warm batch first (one-entry cache: a cold run in between would evict the
/// template), then the cold reference; returns the warm outcomes.
std::vector<spice::SweepOutcome> expect_parity(const std::string& text,
                                               const std::vector<spice::SweepPoint>& grid,
                                               const std::string& mode, bool want_warm) {
  const auto warm = run_warm(text, grid, mode);
  EXPECT_EQ(sweep_template_warm(text, mode), want_warm);
  const auto cold = run_cold(text, grid, mode);
  EXPECT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size() && i < cold.size(); ++i)
    expect_same(warm[i], cold[i], i);
  return warm;
}

std::vector<spice::SweepPoint> mc(const std::string& text, int n, std::uint64_t seed) {
  return spice::mc_grid({}, spice::parse_param_dists(text), {seed, n});
}

TEST(SweepWarm, HdlMonteCarloMatchesColdInEveryExecutor) {
  const auto grid = mc(kHdlMc, 24, 7);
  for (const char* mode : {"ast", "bytecode", "codegen"}) {
    SCOPED_TRACE(mode);
    const auto warm = expect_parity(kHdlMc, grid, mode, true);
    for (const auto& o : warm) EXPECT_TRUE(o.ok) << o.error;
  }
}

TEST(SweepWarm, DividerMatchesColdAndTheAnalyticValue) {
  const auto grid = mc(kDivider, 64, 42);
  const auto warm = expect_parity(kDivider, grid, "", true);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(warm[i].ok) << warm[i].error;
    const double want = grid[i].value("vd") * 1000.0 / (grid[i].value("r") + 1000.0);
    for (const auto& [name, value] : warm[i].metrics) {
      if (name == "op:out") {
        EXPECT_NEAR(value, want, 1e-6);
      }
    }
  }
}

TEST(SweepWarm, WorkerCountDoesNotChangeOutcomes) {
  const auto grid = mc(kHdlMc, 64, 3);
  const auto serial = run_warm(kHdlMc, grid, "bytecode", 1);
  const auto pooled = run_warm(kHdlMc, grid, "bytecode", 4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) expect_same(pooled[i], serial[i], i);
}

TEST(SweepWarm, TemplatesCarriedAcrossBatchesMatchCold) {
  // Sweep workers outlive a batch, and so do their warm templates: a second
  // batch on the same template starts on sessions an earlier batch left,
  // and an A, B, A sequence swaps each worker's template twice. Neither may
  // leak state into a point.
  for (const char* mode : {"bytecode", "codegen"}) {
    SCOPED_TRACE(mode);
    const auto batch = [mode](const std::string& text,
                              const std::vector<spice::SweepPoint>& grid) {
      const auto warm = run_warm(text, grid, mode, 4);
      const auto cold = run_cold(text, grid, mode);
      ASSERT_EQ(warm.size(), cold.size());
      for (std::size_t i = 0; i < warm.size(); ++i) expect_same(warm[i], cold[i], i);
    };
    const auto a = mc(kHdlMc, 48, 21);
    batch(kHdlMc, a);
    batch(kHdlMc, mc(kHdlMc, 48, 22));
    batch(kDivider, mc(kDivider, 48, 23));
    batch(kHdlMc, a);
  }
}

TEST(SweepWarm, NegativeDrawFallsBackAndFailsLikeCold) {
  // sigma twice the mean: a third of the draws make R1 negative, which the
  // Resistor constructor rejects (a netlist error) and set_param refuses.
  const std::string text = R"(* wide tolerance divider
V1 in 0 {vd}
R1 in out {r}
R2 out 0 1000
.param r  dist=normal(1k,2k)
.param vd dist=uniform(4.5,5.5)
.op
.end
)";
  const auto grid = mc(text, 48, 11);
  const auto warm = expect_parity(text, grid, "", true);
  int failed = 0;
  for (const auto& o : warm) {
    if (o.ok) continue;
    ++failed;
    EXPECT_NE(o.error.find("R must be > 0"), std::string::npos) << o.error;
  }
  EXPECT_GT(failed, 0);
  EXPECT_LT(failed, static_cast<int>(grid.size()));
}

TEST(SweepWarm, LintRejectedValueFallsBackAndFailsLikeCold) {
  // k = 0 builds (L = 1/k = inf) but the parameter lint rejects a zero
  // stiffness; the warm re-check must catch it and fall back.
  std::string text = kHdlMc;
  text.replace(text.find("normal(200,10)"), 14, "corner(0,200)");
  const auto grid = mc(text, 6, 5);
  const auto warm = expect_parity(text, grid, "bytecode", true);
  int rejected = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].value("k") != 0.0) {
      EXPECT_TRUE(warm[i].ok) << warm[i].error;
      continue;
    }
    ++rejected;
    EXPECT_EQ(warm[i].failure.kind, FailureKind::lint_rejected);
    EXPECT_NE(warm[i].error.find("stiffness"), std::string::npos) << warm[i].error;
  }
  EXPECT_EQ(rejected, 6);
}

TEST(SweepWarm, StructuralTemplatesTakeTheTextPath) {
  const std::vector<std::string> templates = {
      // a count: TRANSARRAY's key=value lands, but no device is named X1
      "* array\nV1 drive 0 1\nX1 drive 0 TRANSARRAY n={n} a=1e-4 d=2e-6 m=1e-9 "
      "k=2.5 alpha=1e-6\n.op\n.end\n",
      // a node name
      "* node\nV1 in 0 1\nR1 in n{n} 1k\nR2 n{n} 0 1k\n.op\n.end\n",
      // a waveform argument
      "* wave\nV1 in 0 PULSE(0 {n} 0 1u 1u 1m)\nR1 in 0 1k\n.op\n.end\n",
      // an analysis card
      "* card\nV1 in 0 1\nR1 in 0 1k\n.tran 1u {n}m\n.end\n",
  };
  const auto grid = spice::sweep_grid({{"n", {1, 2, 3}}});
  for (const auto& text : templates) {
    SCOPED_TRACE(text);
    const auto warm = expect_parity(text, grid, "", false);
    for (const auto& o : warm) EXPECT_TRUE(o.ok) << o.error;
  }
}

TEST(SweepWarm, DifferentParameterNamesRebuildTheTemplate) {
  // `{b}` is a literal node name while only `a` is swept, and a
  // placeholder once `b` is swept too: the cache must not reuse the first
  // classification for the second parameter set.
  const std::string text = "* names\nV1 in 0 {a}\nR1 in {b} 1k\nR2 {b} 0 1k\n.op\n.end\n";
  spice::SweepPoint only_a;
  only_a.params = {{"a", 2.0}};
  spice::SweepPoint both;
  both.params = {{"a", 2.0}, {"b", 0.0}};
  const auto first = run_sweep_point(text, only_a, "", {}, 0);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(sweep_template_warm(text));
  const auto second = run_sweep_point(text, both, "", {}, 0);
  EXPECT_FALSE(sweep_template_warm(text));
  expect_same(second, run_sweep_point(substitute_params(text, both), {}, "", {}, 0), 0);
}

TEST(SweepWarm, ChangedTextWithSameNamesRebuildsTheTemplate) {
  // Same parameter names, different fixed values: the cache compares the
  // template text, so the second template must not run on the first's
  // session (its op:out would read 2 instead of 1).
  const std::string a = "* t\nV1 in 0 {v}\nR1 in out 1k\nR2 out 0 1k\n.op\n.end\n";
  const std::string b = "* t\nV1 in 0 {v}\nR1 in out 3k\nR2 out 0 1k\n.op\n.end\n";
  spice::SweepPoint p;
  p.params = {{"v", 4.0}};
  const auto first = run_sweep_point(a, p, "", {}, 0);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(sweep_template_warm(a));
  const auto second = run_sweep_point(b, p, "", {}, 0);
  EXPECT_TRUE(sweep_template_warm(b));
  EXPECT_FALSE(sweep_template_warm(a));
  expect_same(second, run_sweep_point(substitute_params(b, p), {}, "", {}, 0), 0);
}

}  // namespace
}  // namespace usys::api
