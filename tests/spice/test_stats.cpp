// Statistics correctness for the Monte Carlo sweep engine (spice/stats.hpp):
// exact golden values on tiny sample sets, analytic-distribution checks at
// N=10k, degenerate cases, measure/yield evaluation, and the shard-merge
// byte-identity contract of the stats JSONL document.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "spice/stats.hpp"

namespace usys::spice {
namespace {

class StatsFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : files_) std::remove(p.c_str());
  }

  /// A fresh path under the test temp dir, deleted on teardown.
  std::string temp_path(const std::string& name) {
    std::string p = ::testing::TempDir() + "usys_stats_" +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                    name + ".jsonl";
    files_.push_back(p);
    return p;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream f(path);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  }

 private:
  std::vector<std::string> files_;
};

// ---------------------------------------------------------------------------
// MetricStats: exact small-set goldens
// ---------------------------------------------------------------------------

/// One quantile level, read the way stats files read it: through summary().
double quantile(const MetricStats& s, double q) {
  return s.summary("m", {q}).quantiles.front().value;
}

TEST(MetricStats, ExactMomentsOnFourSamples) {
  MetricStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(5.0 / 3.0));  // sample (n-1) stddev
  EXPECT_DOUBLE_EQ(s.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 4.0);
}

TEST(MetricStats, Type7QuantilesOnFourSamples) {
  // numpy default (type 7): h = (n-1)q, linear interpolation.
  MetricStats s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(s, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(s, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(s, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(s, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile(s, 1.0), 4.0);
}

TEST(MetricStats, DegenerateCases) {
  MetricStats one;
  one.add(7.5);
  EXPECT_EQ(one.count(), 1);
  EXPECT_DOUBLE_EQ(one.mean(), 7.5);
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);  // n < 2
  EXPECT_DOUBLE_EQ(quantile(one, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(one.min_value(), 7.5);
  EXPECT_DOUBLE_EQ(one.max_value(), 7.5);

  MetricStats flat;  // zero variance
  for (int i = 0; i < 100; ++i) flat.add(-3.25);
  EXPECT_DOUBLE_EQ(flat.mean(), -3.25);
  EXPECT_DOUBLE_EQ(flat.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(quantile(flat, 0.99), -3.25);

  MetricStats empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

TEST(MetricStats, NonFiniteSamplesAreIgnored) {
  MetricStats s;
  s.add(1.0);
  s.add(std::numeric_limits<double>::quiet_NaN());
  s.add(std::numeric_limits<double>::infinity());
  s.add(3.0);
  EXPECT_EQ(s.count(), 2);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

// ---------------------------------------------------------------------------
// Analytic distributions at N=10k (through the production RNG)
// ---------------------------------------------------------------------------

TEST(MetricStats, UniformGoldensAtN10k) {
  const double lo = -1.0;
  const double hi = 3.0;
  const int n = 10'000;
  MetricStats s;
  for (int c = 0; c < n; ++c)
    s.add(rng_uniform(31, static_cast<std::uint64_t>(c), 1, lo, hi));
  const double width = hi - lo;
  EXPECT_NEAR(s.mean(), (lo + hi) / 2.0, 0.05 * width);
  EXPECT_NEAR(s.stddev(), width / std::sqrt(12.0), 0.05 * width);
  EXPECT_NEAR(quantile(s, 0.5), 1.0, 0.05 * width);
  EXPECT_NEAR(quantile(s, 0.05), lo + 0.05 * width, 0.05 * width);
  EXPECT_NEAR(quantile(s, 0.95), lo + 0.95 * width, 0.05 * width);
  EXPECT_GE(s.min_value(), lo);
  EXPECT_LT(s.max_value(), hi);
}

TEST(MetricStats, NormalGoldensAtN10k) {
  const double mu = 10.0;
  const double sigma = 2.0;
  const int n = 10'000;
  MetricStats s;
  for (int c = 0; c < n; ++c)
    s.add(rng_normal(32, static_cast<std::uint64_t>(c), 2, mu, sigma));
  EXPECT_NEAR(s.mean(), mu, 0.1 * sigma);
  EXPECT_NEAR(s.stddev(), sigma, 0.05 * sigma);
  // Quantiles against the analytic z-scores.
  EXPECT_NEAR(quantile(s, 0.5), mu, 0.1 * sigma);
  EXPECT_NEAR(quantile(s, 0.05), mu - 1.6449 * sigma, 0.15 * sigma);
  EXPECT_NEAR(quantile(s, 0.95), mu + 1.6449 * sigma, 0.15 * sigma);
  EXPECT_NEAR(quantile(s, 0.99), mu + 2.3263 * sigma, 0.25 * sigma);
}

// ---------------------------------------------------------------------------
// Measures and yield
// ---------------------------------------------------------------------------

MeasureSpec bound(const std::string& label, const std::string& metric,
                  double lo, double hi) {
  MeasureSpec m;
  m.label = label;
  m.metric = metric;
  m.lo = lo;
  m.hi = hi;
  m.has_lo = true;
  m.has_hi = true;
  return m;
}

TEST(Measures, BoundsMissingAndNonFiniteMetrics) {
  const MeasureSpec m = bound("vout", "op:out", 1.0, 2.0);
  EXPECT_TRUE(measure_passes({{"op:out", 1.5}}, m));
  EXPECT_TRUE(measure_passes({{"op:out", 1.0}}, m));  // bounds are inclusive
  EXPECT_TRUE(measure_passes({{"op:out", 2.0}}, m));
  EXPECT_FALSE(measure_passes({{"op:out", 0.99}}, m));
  EXPECT_FALSE(measure_passes({{"op:out", 2.01}}, m));
  EXPECT_FALSE(measure_passes({{"other", 1.5}}, m));  // missing metric fails
  EXPECT_FALSE(measure_passes(
      {{"op:out", std::numeric_limits<double>::quiet_NaN()}}, m));
  EXPECT_TRUE(measures_pass({{"x", 0.0}}, {}));  // no measures: trivially pass
}

StatsRun synthetic_run(int n, const std::vector<MeasureSpec>& measures) {
  StatsRun run;
  run.seed_text = "42";
  run.total_points = n;
  run.mc = n;
  run.measures = measures;
  for (int i = 0; i < n; ++i) {
    SweepPoint p;
    p.params = {{"r", 100.0 + i}};
    SweepOutcome out;
    out.ok = i % 7 != 3;  // a few simulation failures
    if (out.ok) out.metrics = {{"m", static_cast<double>(i)}};
    out.error = out.ok ? "" : "synthetic failure";
    run.add_outcome(i, p, out);
  }
  return run;
}

TEST(StatsRun, YieldCountsPassOkAndPerMeasureFailures) {
  // m = 0..20, ok except i%7==3 (i = 3, 10, 17); measure m <= 9.5.
  MeasureSpec m;
  m.label = "upper";
  m.metric = "m";
  m.hi = 9.5;
  m.has_hi = true;
  const StatsRun run = synthetic_run(21, {m});
  const YieldSummary y = run.yield();
  EXPECT_EQ(y.n, 21);
  EXPECT_EQ(y.ok, 18);
  // Pass: ok points with m <= 9.5 -> i in {0,1,2,4,5,6,7,8,9} = 9 points.
  EXPECT_EQ(y.pass, 9);
  EXPECT_DOUBLE_EQ(y.yield, 9.0 / 21.0);
  ASSERT_EQ(y.measure_failures.size(), 1u);
  EXPECT_EQ(y.measure_failures[0].first, "upper");
  EXPECT_EQ(y.measure_failures[0].second, 9);  // 18 ok - 9 passing
}

TEST(StatsRun, AllFailYieldIsZero) {
  MeasureSpec m;
  m.label = "impossible";
  m.metric = "m";
  m.lo = 1e9;
  m.has_lo = true;
  const StatsRun run = synthetic_run(10, {m});
  const YieldSummary y = run.yield();
  EXPECT_EQ(y.pass, 0);
  EXPECT_DOUBLE_EQ(y.yield, 0.0);
}

TEST(StatsRun, SkippedOutcomesAreNotRecorded) {
  StatsRun run;
  SweepPoint p;
  SweepOutcome skipped;
  skipped.skipped = true;
  run.add_outcome(0, p, skipped);
  EXPECT_TRUE(run.points.empty());
  EXPECT_EQ(run.yield().n, 0);
  EXPECT_DOUBLE_EQ(run.yield().yield, 0.0);  // 0/0 is 0, not NaN
}

// ---------------------------------------------------------------------------
// Stats JSONL: round-trip and shard-merge byte identity
// ---------------------------------------------------------------------------

TEST_F(StatsFileTest, WriteLoadRoundTripsByteIdentically) {
  const StatsRun run = synthetic_run(21, {bound("band", "m", 2.0, 15.0)});
  const std::string path = temp_path("roundtrip");
  std::string err;
  ASSERT_TRUE(write_stats(path, run, &err)) << err;
  StatsRun loaded;
  ASSERT_TRUE(load_stats(path, loaded, &err)) << err;
  // Summaries are recomputed on write, so a load-write cycle is stable.
  EXPECT_EQ(loaded.to_jsonl(), run.to_jsonl());
  EXPECT_EQ(slurp(path), run.to_jsonl());
}

TEST_F(StatsFileTest, ShardMergeEqualsSingleRunByteForByte) {
  // The acceptance contract: 2 shards over a 1000-point MC run, merged,
  // must serialize byte-identically to the single-process run.
  const int n = 1000;
  const std::vector<MeasureSpec> measures = {bound("band", "m", -1.0, 1.0)};
  StatsRun full;
  StatsRun shard1;
  StatsRun shard2;
  for (StatsRun* r : {&full, &shard1, &shard2}) {
    r->seed_text = "42";
    r->total_points = n;
    r->mc = n;
    r->measures = measures;
  }
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  shard2.shard_index = 2;
  shard2.shard_count = 2;
  for (int i = 0; i < n; ++i) {
    SweepPoint p;
    p.params = {{"x", rng_normal(42, static_cast<std::uint64_t>(i),
                                 rng_hash_name("x"), 0.0, 1.0)}};
    SweepOutcome out;
    out.ok = true;
    // The second metric is the dB of an AC-dead node: -inf at every point,
    // so its summary has n = 0 in the full run and must in the merge too.
    out.metrics = {{"m", p.params[0].second},
                   {"ac dB(fstop):dead", -std::numeric_limits<double>::infinity()}};
    full.add_outcome(i, p, out);
    (i % 2 == 0 ? shard1 : shard2).add_outcome(i, p, out);
  }
  const std::string p1 = temp_path("shard1");
  const std::string p2 = temp_path("shard2");
  const std::string pf = temp_path("full");
  std::string err;
  ASSERT_TRUE(write_stats(p1, shard1, &err)) << err;
  ASSERT_TRUE(write_stats(p2, shard2, &err)) << err;
  ASSERT_TRUE(write_stats(pf, full, &err)) << err;
  ASSERT_NE(slurp(p1), slurp(p2));  // shards really carry disjoint points

  StatsRun merged;
  ASSERT_TRUE(merge_stats({p1, p2}, merged, &err)) << err;
  EXPECT_EQ(merged.shard_index, 0);  // canonical unsharded form
  EXPECT_EQ(merged.shard_count, 0);
  EXPECT_EQ(merged.to_jsonl(), slurp(pf));

  const std::string pm = temp_path("merged");
  ASSERT_TRUE(write_stats(pm, merged, &err)) << err;
  EXPECT_EQ(slurp(pm), slurp(pf));  // the file-level claim CI smoke re-checks

  // Merge order must not matter: points key by global index.
  StatsRun merged_rev;
  ASSERT_TRUE(merge_stats({p2, p1}, merged_rev, &err)) << err;
  EXPECT_EQ(merged_rev.to_jsonl(), merged.to_jsonl());
}

TEST_F(StatsFileTest, MergeRejectsIncompatibleHeaders) {
  StatsRun a = synthetic_run(5, {});
  StatsRun b = synthetic_run(5, {});
  b.seed_text = "43";  // different seed: these are not shards of one run
  const std::string pa = temp_path("a");
  const std::string pb = temp_path("b");
  std::string err;
  ASSERT_TRUE(write_stats(pa, a, &err)) << err;
  ASSERT_TRUE(write_stats(pb, b, &err)) << err;
  StatsRun merged;
  EXPECT_FALSE(merge_stats({pa, pb}, merged, &err));
  EXPECT_FALSE(err.empty());
}

TEST_F(StatsFileTest, LoadRejectsUntrustedIntegersAndValuesWithLineNumber) {
  const std::string header =
      "{\"v\":1,\"stats\":\"header\",\"seed\":\"1\",\"points\":4,\"mc\":4,"
      "\"shard\":\"full\",\"measures\":[]}\n";
  const std::string good =
      "{\"stats\":\"point\",\"i\":0,\"ok\":true,\"params\":[[\"r\",1]],"
      "\"metrics\":[[\"m\",2]]}\n";
  const auto point = [](const std::string& i, const std::string& value) {
    return "{\"stats\":\"point\",\"i\":" + i +
           ",\"ok\":true,\"params\":[[\"r\"," + value + "]],\"metrics\":[]}\n";
  };
  // {file contents, line number the error must name}
  const std::vector<std::pair<std::string, int>> cases = {
      {header + good + point("1e300", "1"), 3},
      {header + good + point("2.5", "1"), 3},
      {header + good + point("-1", "1"), 3},
      {header + good + point("1", "true"), 3},
      {"{\"v\":1,\"stats\":\"header\",\"points\":1e300}\n" + good, 1},
      {"{\"v\":1,\"stats\":\"header\",\"mc\":2.5}\n" + good, 1},
  };
  const std::string path = temp_path("untrusted");
  for (const auto& [text, lineno] : cases) {
    std::ofstream(path, std::ios::trunc) << text;
    StatsRun run;
    std::string err;
    EXPECT_FALSE(load_stats(path, run, &err)) << text;
    EXPECT_NE(err.find(path + ":" + std::to_string(lineno) + ":"), std::string::npos)
        << err;
  }
  std::ofstream(path, std::ios::trunc) << header << good;
  StatsRun run;
  std::string err;
  ASSERT_TRUE(load_stats(path, run, &err)) << err;
  EXPECT_EQ(run.points.at(0).outcome.metrics[0].second, 2.0);
}

TEST_F(StatsFileTest, ShardHeaderAcceptsOnlyWhatTheWriterEmits) {
  const auto header = [](const std::string& shard) {
    return "{\"v\":1,\"stats\":\"header\",\"seed\":\"1\",\"points\":4,\"mc\":4,"
           "\"shard\":\"" + shard + "\",\"measures\":[]}\n";
  };
  struct Case {
    const char* shard;
    bool ok;
    int index;
    int count;
  };
  const std::vector<Case> cases = {
      {"full", true, 0, 0},   {"1/2", true, 1, 2},    {"2/2", true, 2, 2},
      {"3/7", true, 3, 7},    {"0/2", false, 0, 0},   {"3/2", false, 0, 0},
      {"1/1", false, 0, 0},   {"x1/2", false, 0, 0},  {"1/-2", false, 0, 0},
      {"-1/2", false, 0, 0},  {"+1/2", false, 0, 0},  {"0x1/2", false, 0, 0},
      {"1/2x", false, 0, 0},  {" 1/2", false, 0, 0},  {"1/ 2", false, 0, 0},
      {"1/", false, 0, 0},    {"/2", false, 0, 0},    {"1", false, 0, 0},
      {"1/2/3", false, 0, 0}, {"1.0/2", false, 0, 0}, {"99999999999/2", false, 0, 0},
      {"1/99999999999", false, 0, 0},
  };
  const std::string path = temp_path("shard");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.shard);
    std::ofstream(path, std::ios::trunc) << header(c.shard);
    StatsRun run;
    std::string err;
    EXPECT_EQ(load_stats(path, run, &err), c.ok) << err;
    if (c.ok) {
      EXPECT_EQ(run.shard_index, c.index);
      EXPECT_EQ(run.shard_count, c.count);
    } else {
      EXPECT_NE(err.find(path + ":1: bad shard field"), std::string::npos) << err;
    }
  }
}

TEST_F(StatsFileTest, LoadRejectsMissingAndMalformedFiles) {
  StatsRun out;
  std::string err;
  EXPECT_FALSE(load_stats(temp_path("nonexistent"), out, &err));
  EXPECT_FALSE(err.empty());

  const std::string path = temp_path("garbage");
  std::ofstream(path) << "this is not json\n";
  err.clear();
  EXPECT_FALSE(load_stats(path, out, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace usys::spice
