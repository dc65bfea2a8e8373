// Monte Carlo sweep fabric (spice/sweep.hpp mc_grid + friends): dist-spec
// parsing, the .param/.measure netlist pre-passes (an AC .measure through a
// whole sweep and its stats file included), grid composition
// (axes x corners x MC draws), and the determinism guarantees — grids and
// SweepRunner results bit-identical across thread counts, shard splits, and
// checkpoint resume — plus the shard-unique result-file naming fix.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "spice/netlist.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"

namespace usys::spice {
namespace {

// ---------------------------------------------------------------------------
// Dist-spec and sweep-entry parsing
// ---------------------------------------------------------------------------

TEST(DistSpec, ParsesAllKinds) {
  auto n = parse_dist_spec("r", "normal(1k,50)");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->kind, ParamDist::Kind::normal);
  EXPECT_DOUBLE_EQ(n->a, 1000.0);
  EXPECT_DOUBLE_EQ(n->b, 50.0);
  EXPECT_TRUE(n->is_random());

  auto g = parse_dist_spec("r", "gauss(0,1)");  // SPICE-familiar alias
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->kind, ParamDist::Kind::normal);

  auto u = parse_dist_spec("v", "uniform(4.5,5.5)");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->kind, ParamDist::Kind::uniform);
  EXPECT_DOUBLE_EQ(u->a, 4.5);
  EXPECT_DOUBLE_EQ(u->b, 5.5);

  auto c = parse_dist_spec("t", "corner(-40,25,125)");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, ParamDist::Kind::corner);
  EXPECT_FALSE(c->is_random());
  ASSERT_EQ(c->values.size(), 3u);
  EXPECT_DOUBLE_EQ(c->values[1], 25.0);

  auto k = parse_dist_spec("x", "2.5u");  // plain number = constant
  ASSERT_TRUE(k.has_value());
  EXPECT_EQ(k->kind, ParamDist::Kind::constant);
  EXPECT_DOUBLE_EQ(k->a, 2.5e-6);
}

TEST(DistSpec, RejectsMalformedSpecs) {
  std::string why;
  EXPECT_FALSE(parse_dist_spec("r", "normal(1k,-5)", &why));  // sigma < 0
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(parse_dist_spec("r", "uniform(2,1)"));  // hi < lo
  EXPECT_FALSE(parse_dist_spec("r", "corner()"));      // empty corner list
  EXPECT_FALSE(parse_dist_spec("r", "normal(1)"));     // arity
  EXPECT_FALSE(parse_dist_spec("r", "cauchy(0,1)"));   // unknown dist
  EXPECT_FALSE(parse_dist_spec("r", "garbage"));
}

TEST(SweepEntry, ParsesAxesAndDists) {
  auto lin = parse_sweep_entry("gap=1u:2u:5");
  ASSERT_TRUE(lin.has_value());
  EXPECT_FALSE(lin->is_dist);
  EXPECT_EQ(lin->axis.name, "gap");
  ASSERT_EQ(lin->axis.values.size(), 5u);
  EXPECT_DOUBLE_EQ(lin->axis.values.front(), 1e-6);
  EXPECT_DOUBLE_EQ(lin->axis.values.back(), 2e-6);

  auto list = parse_sweep_entry("v=2,5,10");
  ASSERT_TRUE(list.has_value());
  EXPECT_FALSE(list->is_dist);
  ASSERT_EQ(list->axis.values.size(), 3u);

  auto dist = parse_sweep_entry("r=normal(1k,50)");
  ASSERT_TRUE(dist.has_value());
  EXPECT_TRUE(dist->is_dist);
  EXPECT_EQ(dist->dist.name, "r");

  std::string why;
  EXPECT_FALSE(parse_sweep_entry("noequals", &why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(parse_sweep_entry("x=1:2", &why));      // lo:hi:n arity
  EXPECT_FALSE(parse_sweep_entry("x=1,abc", &why));    // bad list value
  // The point count is a decimal integer in [1, 1e6], read before any cast.
  for (const char* n : {"1e12", "2.5", "0", "-3", "1k", "0x10", "1000001", "+5", "8x"}) {
    SCOPED_TRACE(n);
    EXPECT_FALSE(parse_sweep_entry(std::string("x=0:1:") + n, &why));
    EXPECT_EQ(why, "range spec wants lo:hi:n with 1 <= n <= 1e6");
  }
  EXPECT_EQ(parse_sweep_entry("x=0:1: 8")->axis.values.size(), 8u);
  EXPECT_EQ(parse_sweep_entry("x=0:1:1000000")->axis.values.size(), 1'000'000u);
}

// ---------------------------------------------------------------------------
// Netlist pre-passes
// ---------------------------------------------------------------------------

TEST(NetlistPrepass, ExtractsParamDistsAndMeasures) {
  const std::string text =
      "* title\n"
      "R1 a 0 {r}\n"
      ".param r dist=normal(1k,50)\n"
      ".param vd dist=uniform(4.5,5.5) ; comment\n"
      ".param fixed 2.5u\n"
      ".measure vout op:out min=2.0 max=3.0\n"
      ".measure floor op:out min=0\n"
      ".op\n"
      ".end\n";
  const auto dists = parse_param_dists(text);
  ASSERT_EQ(dists.size(), 3u);
  EXPECT_EQ(dists[0].name, "r");
  EXPECT_EQ(dists[0].kind, ParamDist::Kind::normal);
  EXPECT_EQ(dists[1].name, "vd");
  EXPECT_EQ(dists[1].kind, ParamDist::Kind::uniform);
  EXPECT_EQ(dists[2].name, "fixed");
  EXPECT_EQ(dists[2].kind, ParamDist::Kind::constant);

  const auto measures = parse_measures(text);
  ASSERT_EQ(measures.size(), 2u);
  EXPECT_EQ(measures[0].label, "vout");
  EXPECT_EQ(measures[0].metric, "op:out");
  EXPECT_TRUE(measures[0].has_lo);
  EXPECT_TRUE(measures[0].has_hi);
  EXPECT_DOUBLE_EQ(measures[0].lo, 2.0);
  EXPECT_DOUBLE_EQ(measures[0].hi, 3.0);
  EXPECT_TRUE(measures[1].has_lo);
  EXPECT_FALSE(measures[1].has_hi);
}

TEST(NetlistPrepass, LaterParamCardOverridesEarlier) {
  const auto dists = parse_param_dists(
      ".param r dist=normal(1k,50)\n.param r dist=uniform(900,1100)\n");
  ASSERT_EQ(dists.size(), 1u);
  EXPECT_EQ(dists[0].kind, ParamDist::Kind::uniform);
}

TEST(NetlistPrepass, MalformedCardsThrow) {
  EXPECT_THROW(parse_param_dists(".param r\n"), NetlistError);
  EXPECT_THROW(parse_param_dists(".param r dist=normal(1k,-2)\n"), NetlistError);
  EXPECT_THROW(parse_measures(".measure v op:out\n"), NetlistError);  // no bound
  EXPECT_THROW(parse_measures(".measure v op:out min=3 max=1\n"), NetlistError);
}

TEST(NetlistPrepass, MeasureMetricMayHoldSpaces) {
  // AC metric names hold a space; the metric is every token before the
  // first key=value, joined by one space.
  const auto measures = parse_measures(".measure sens ac   dB(fstop):vel min=-144\n");
  ASSERT_EQ(measures.size(), 1u);
  EXPECT_EQ(measures[0].label, "sens");
  EXPECT_EQ(measures[0].metric, "ac dB(fstop):vel");
  EXPECT_TRUE(measures[0].has_lo);
  EXPECT_FALSE(measures[0].has_hi);
  EXPECT_DOUBLE_EQ(measures[0].lo, -144.0);
  EXPECT_THROW(parse_measures(".measure sens min=-144\n"), NetlistError);  // no metric
  EXPECT_THROW(parse_measures(".measure sens ac dB(fstop):vel\n"), NetlistError);
}

TEST(NetlistPrepass, ParseTreatsStatCardsAsInert) {
  // The full parser must accept .param/.measure cards without trying to
  // interpret them as devices or analyses.
  const std::string text =
      "V1 in 0 5\nR1 in out 1k\nR2 out 0 1k\n"
      ".param r dist=normal(1k,50)\n.measure v op:out min=0\n.op\n.end\n";
  NetlistParser parser;
  const auto net = parser.parse(text);
  EXPECT_EQ(net.analyses.size(), 1u);
}

// ---------------------------------------------------------------------------
// mc_grid composition and determinism
// ---------------------------------------------------------------------------

std::vector<ParamDist> demo_dists() {
  std::vector<ParamDist> dists;
  dists.push_back(*parse_dist_spec("temp", "corner(-40,25,125)"));
  dists.push_back(*parse_dist_spec("r", "normal(1000,50)"));
  dists.push_back(*parse_dist_spec("bias", "0.5"));
  return dists;
}

TEST(McGrid, ComposesAxesCornersAndDraws) {
  std::vector<SweepAxis> axes = {SweepAxis::linspace("gap", 1.0, 2.0, 2)};
  const auto grid = mc_grid(axes, demo_dists(), {7, 4});
  // 2 axis values x 3 corners x 4 MC draws, MC index fastest.
  ASSERT_EQ(grid.size(), 2u * 3u * 4u);
  for (const auto& p : grid) {
    ASSERT_EQ(p.params.size(), 4u);  // gap, temp, r, bias
    EXPECT_EQ(p.params[0].first, "gap");
    EXPECT_EQ(p.params[1].first, "temp");
    EXPECT_EQ(p.params[2].first, "r");
    EXPECT_EQ(p.params[3].first, "bias");
    EXPECT_DOUBLE_EQ(p.value("bias"), 0.5);  // constants fixed everywhere
  }
  // MC fastest: the first four points share gap and corner, differ in r.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(grid[i].value("gap"), 1.0);
    EXPECT_DOUBLE_EQ(grid[i].value("temp"), -40.0);
  }
  EXPECT_NE(grid[0].value("r"), grid[1].value("r"));
  EXPECT_DOUBLE_EQ(grid[4].value("temp"), 25.0);  // next corner after 4 draws

  // The draw for point i is keyed on the GLOBAL index, reproducible alone.
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(grid[i].value("r"),
              rng_normal(7, i, rng_hash_name("r"), 1000.0, 50.0));
}

TEST(McGrid, NoAxesNoDistsStillReplicates) {
  const auto grid = mc_grid({}, {}, {0, 5});
  ASSERT_EQ(grid.size(), 5u);
  for (const auto& p : grid) EXPECT_TRUE(p.params.empty());
}

TEST(McGrid, SameSeedSameGridDifferentSeedDifferentDraws) {
  std::vector<SweepAxis> axes = {SweepAxis::linspace("gap", 1.0, 2.0, 3)};
  const auto a = mc_grid(axes, demo_dists(), {42, 10});
  const auto b = mc_grid(axes, demo_dists(), {42, 10});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].params, b[i].params);  // exact doubles

  const auto c = mc_grid(axes, demo_dists(), {43, 10});
  EXPECT_NE(a[0].value("r"), c[0].value("r"));
  EXPECT_EQ(a[0].value("gap"), c[0].value("gap"));  // axes ignore the seed
}

// ---------------------------------------------------------------------------
// SweepRunner determinism over an MC grid
// ---------------------------------------------------------------------------

/// Deterministic synthetic job: metric is an exact function of the params.
SweepOutcome synth_job(const SweepPoint& p) {
  SweepOutcome out;
  out.ok = true;
  out.attempts = 1;
  out.metrics = {{"m", p.value("r") * 1e-3 + p.value("gap")}};
  return out;
}

std::vector<SweepPoint> synth_grid(int mc) {
  std::vector<SweepAxis> axes = {SweepAxis::linspace("gap", 1.0, 2.0, 2)};
  std::vector<ParamDist> dists = {*parse_dist_spec("r", "normal(1000,50)")};
  return mc_grid(axes, dists, {42, mc});
}

void expect_same_results(const std::vector<SweepOutcome>& a,
                         const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].metrics, b[i].metrics);  // bit-exact doubles
  }
}

TEST(McRunner, ResultsBitIdenticalAcrossThreadCounts) {
  const auto grid = synth_grid(64);
  const auto r1 = SweepRunner(1).run(grid, synth_job);
  const auto r2 = SweepRunner(2).run(grid, synth_job);
  const auto r8 = SweepRunner(8).run(grid, synth_job);
  expect_same_results(r1, r2);
  expect_same_results(r1, r8);
}

TEST(McRunner, ShardUnionEqualsUnshardedRun) {
  const auto grid = synth_grid(50);
  SweepRunner runner(2);
  const auto full = runner.run(grid, synth_job);

  auto retry_job = [](const SweepPoint& p, int) { return synth_job(p); };
  const int shards = 3;
  std::vector<SweepOutcome> stitched(grid.size());
  for (int k = 1; k <= shards; ++k) {
    SweepOptions opts;
    opts.shard_index = k;
    opts.shard_count = shards;
    const auto part = runner.run(grid, retry_job, opts);
    ASSERT_EQ(part.size(), grid.size());
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part[i].skipped, !shard_owns(i, k, shards));
      if (!part[i].skipped) stitched[i] = part[i];
    }
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_FALSE(stitched[i].skipped);
    EXPECT_EQ(stitched[i].metrics, full[i].metrics);
  }
}

TEST(McRunner, CheckpointResumeIsBitIdenticalOnMcGrid) {
  const auto grid = synth_grid(40);
  const std::string ckpt = ::testing::TempDir() + "usys_mc_resume.jsonl";
  std::remove(ckpt.c_str());
  SweepRunner runner(2);

  // First pass: run only shard 1 of 2, journaling to the checkpoint.
  SweepOptions first;
  first.shard_index = 1;
  first.shard_count = 2;
  first.checkpoint_path = ckpt;
  auto retry_job = [](const SweepPoint& p, int) { return synth_job(p); };
  const auto half = runner.run(grid, retry_job, first);

  // Second pass: resume the full grid from the half-done journal. Restored
  // points must be bit-identical to the first pass, not recomputed.
  SweepOptions second;
  second.resume_path = ckpt;
  const auto full = runner.run(grid, retry_job, second);
  const auto reference = runner.run(grid, synth_job);
  ASSERT_EQ(full.size(), reference.size());
  int restored = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(full[i].ok);
    EXPECT_EQ(full[i].metrics, reference[i].metrics);
    if (full[i].restored) {
      ++restored;
      EXPECT_EQ(full[i].metrics, half[i].metrics);
    }
  }
  // Every shard-1 point (half the 2-axis x 40-mc grid) came from the journal.
  EXPECT_EQ(restored, static_cast<int>(grid.size()) / 2);
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// An AC .measure through a whole Monte Carlo sweep and its stats file
// ---------------------------------------------------------------------------

/// RC lowpass with a toleranced resistor; at 1 kHz |H| is about -16 dB, so
/// a -16 dB floor splits the draws.
constexpr const char* kAcMcNetlist =
    "* RC lowpass, toleranced\n"
    ".param r dist=normal(1k,100)\n"
    ".measure sens ac dB(fstop):out min=-16\n"
    "V1 in 0 0 AC 1\n"
    "R1 in out {r}\n"
    "C1 out 0 1u\n"
    ".ac dec 2 10 1k\n"
    ".end\n";

api::SweepRun run_ac_mc() {
  api::SweepPlan plan;
  std::string error;
  EXPECT_TRUE(api::plan_sweep({kAcMcNetlist, {}, 40, "7", ""}, plan, error)) << error;
  return api::run_sweep(plan, 1, {}, {});
}

TEST(AcMeasure, YieldCountsTheAcBound) {
  const api::SweepRun run = run_ac_mc();
  ASSERT_EQ(run.stats.measures.size(), 1u);
  EXPECT_EQ(run.stats.measures[0].metric, "ac dB(fstop):out");
  long expected = 0;
  for (const SweepOutcome& out : run.outcomes) {
    ASSERT_TRUE(out.ok) << out.error;
    for (const auto& [name, value] : out.metrics)
      if (name == "ac dB(fstop):out" && value >= -16.0) ++expected;
  }
  const YieldSummary y = run.stats.yield();
  EXPECT_EQ(y.n, 40);
  EXPECT_EQ(y.pass, expected);
  EXPECT_GT(expected, 0);  // the floor splits the draws
  EXPECT_LT(expected, 40);
  ASSERT_EQ(y.measure_failures.size(), 1u);
  EXPECT_EQ(y.measure_failures[0].first, "sens");
  EXPECT_EQ(y.measure_failures[0].second, 40 - expected);
}

TEST(AcMeasure, StatsFileRoundTripsThroughMerge) {
  const api::SweepRun run = run_ac_mc();
  const std::string path = ::testing::TempDir() + "usys_ac_measure_stats.jsonl";
  std::string error;
  ASSERT_TRUE(write_stats(path, run.stats, &error)) << error;
  StatsRun loaded;
  ASSERT_TRUE(load_stats(path, loaded, &error)) << error;
  ASSERT_EQ(loaded.measures.size(), 1u);
  EXPECT_EQ(loaded.measures[0].metric, "ac dB(fstop):out");
  StatsRun merged;
  ASSERT_TRUE(merge_stats({path}, merged, &error)) << error;
  EXPECT_EQ(merged.to_jsonl(), run.stats.to_jsonl());
  EXPECT_EQ(merged.yield().pass, run.stats.yield().pass);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shard-unique result-file naming (the --shard collision fix)
// ---------------------------------------------------------------------------

TEST(ShardPaths, SuffixGoesBeforeTheExtension) {
  EXPECT_EQ(shard_suffixed_path("out.csv", 1, 2), "out.shard1of2.csv");
  EXPECT_EQ(shard_suffixed_path("out.csv", 2, 2), "out.shard2of2.csv");
  EXPECT_EQ(shard_suffixed_path("stats.jsonl", 3, 8), "stats.shard3of8.jsonl");
  EXPECT_EQ(shard_suffixed_path("noext", 1, 2), "noext.shard1of2");
  // The extension search must not cross a directory separator.
  EXPECT_EQ(shard_suffixed_path("a.b/out", 1, 2), "a.b/out.shard1of2");
  EXPECT_EQ(shard_suffixed_path("a.b/out.csv", 1, 2), "a.b/out.shard1of2.csv");
}

TEST(ShardPaths, IdentityWhenUnsharded) {
  EXPECT_EQ(shard_suffixed_path("out.csv", 0, 0), "out.csv");
  EXPECT_EQ(shard_suffixed_path("out.csv", 1, 1), "out.csv");
}

TEST(ShardPaths, DistinctAcrossAllShards) {
  // The regression this guards: two shards given the same --csv/--stats-out
  // path must never write the same file.
  const int n = 8;
  std::vector<std::string> paths;
  for (int k = 1; k <= n; ++k)
    paths.push_back(shard_suffixed_path("result.csv", k, n));
  for (std::size_t i = 0; i < paths.size(); ++i)
    for (std::size_t j = i + 1; j < paths.size(); ++j)
      EXPECT_NE(paths[i], paths[j]);
}

}  // namespace
}  // namespace usys::spice
