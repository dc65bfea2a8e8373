// Sweep checkpoint/resume (spice/checkpoint.hpp + SweepRunner fault
// tolerance): JSONL round-trips bit-identically, torn tails and foreign
// garbage are skipped, resume restores completed points and re-runs only the
// unfinished ones, shard files merge by concatenation, and retries escalate
// with an attempt counter.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "spice/checkpoint.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/solver.hpp"
#include "spice/sweep.hpp"

namespace usys::spice {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override {
    fault::disarm_all();
    for (const auto& p : files_) std::remove(p.c_str());
  }

  /// A fresh path under the test temp dir, deleted on teardown.
  std::string temp_path(const std::string& name) {
    std::string p = ::testing::TempDir() + "usys_ckpt_" +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
                    name + ".jsonl";
    files_.push_back(p);
    return p;
  }

 private:
  std::vector<std::string> files_;
};

/// An arbitrary irrational-ish metric: enough floating-point structure that
/// "bit-identical after a decimal round-trip" is a real claim.
double metric_of(const SweepPoint& p) {
  return std::sin(p.value("a")) * 1e-7 + p.value("b") / 3.0;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Same names and the same value bits (so NaN matches NaN).
bool same_bits(const NamedValues& a, const NamedValues& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k)
    if (a[k].first != b[k].first || std::bit_cast<std::uint64_t>(a[k].second) !=
                                        std::bit_cast<std::uint64_t>(b[k].second))
      return false;
  return true;
}

// ---------------------------------------------------------------------------
// Line format
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, OkRecordRoundTripsBitIdentically) {
  SweepPoint point;
  point.params = {{"a", 1.0 / 3.0}, {"b", 1e-300}, {"c", -2.5e17}};
  SweepOutcome out;
  out.ok = true;
  out.attempts = 2;
  out.metrics = {{"m1", 0.1}, {"m2", std::nextafter(1.0, 2.0)}};
  out.error = "";
  const std::string line = checkpoint_line(7, point, out);

  PointRecord rec;
  ASSERT_TRUE(parse_checkpoint_line(line, rec)) << line;
  EXPECT_EQ(rec.index, 7);
  EXPECT_TRUE(rec.outcome.ok);
  EXPECT_EQ(rec.outcome.attempts, 2);
  EXPECT_EQ(rec.point.params, point.params);    // exact doubles, not approx
  EXPECT_EQ(rec.outcome.metrics, out.metrics);
  EXPECT_TRUE(rec.outcome.failure.ok());        // no failure object for ok records

  // Non-finite values (the dB of an AC-dead node is -inf) stay plain JSON
  // and restore bit for bit.
  point.params = {{"p+", kInf}, {"p-", -kInf}, {"pn", kNaN}};
  out.metrics = {{"m+", kInf}, {"m-", -kInf}, {"mn", kNaN}, {"m", 0.1}};
  const std::string odd = checkpoint_line(8, point, out);
  ASSERT_TRUE(json_parse(odd).has_value()) << odd;
  ASSERT_TRUE(parse_checkpoint_line(odd, rec)) << odd;
  EXPECT_EQ(rec.index, 8);
  EXPECT_TRUE(same_bits(rec.point.params, point.params)) << odd;
  EXPECT_TRUE(same_bits(rec.outcome.metrics, out.metrics)) << odd;
}

TEST_F(CheckpointTest, FailureRecordRoundTripsKindAndContext) {
  SweepPoint point;
  point.params = {{"k", 2.0}};
  SweepOutcome out;
  out.ok = false;
  out.attempts = 3;
  out.error = "weird \"quoted\"\nerror\twith\x01control";
  out.failure = make_failure(FailureKind::timeout, "tran", "detail \\ here", 1.25e-5, 7, 1);
  const std::string line = checkpoint_line(0, point, out);

  PointRecord rec;
  ASSERT_TRUE(parse_checkpoint_line(line, rec)) << line;
  EXPECT_EQ(rec.outcome.error, out.error);
  EXPECT_EQ(rec.outcome.failure.kind, FailureKind::timeout);
  EXPECT_EQ(rec.outcome.failure.analysis, "tran");
  EXPECT_EQ(rec.outcome.failure.time, 1.25e-5);
  EXPECT_EQ(rec.outcome.failure.iteration, 7);
  EXPECT_EQ(rec.outcome.failure.rescue_attempts, 1);
  EXPECT_EQ(rec.outcome.failure.detail, "detail \\ here");
}

TEST_F(CheckpointTest, NanTimeWritesNullAndReadsBackNan) {
  SweepPoint point;
  point.params = {{"k", 1.0}};
  SweepOutcome out;
  out.ok = false;
  out.error = "x";
  out.failure = make_failure(FailureKind::newton_divergence, "dc");
  const std::string line = checkpoint_line(1, point, out);
  EXPECT_NE(line.find("\"time\":null"), std::string::npos);
  PointRecord rec;
  ASSERT_TRUE(parse_checkpoint_line(line, rec));
  EXPECT_TRUE(std::isnan(rec.outcome.failure.time));
}

TEST_F(CheckpointTest, ParseRejectsMalformedLines) {
  PointRecord rec;
  EXPECT_FALSE(parse_checkpoint_line("", rec));
  EXPECT_FALSE(parse_checkpoint_line("{\"i\":1,\"ok\":tr", rec));       // torn tail
  EXPECT_FALSE(parse_checkpoint_line("{\"ok\":true}", rec));            // no index
  EXPECT_FALSE(parse_checkpoint_line("{\"i\":1}trailing", rec));        // garbage after
  EXPECT_FALSE(parse_checkpoint_line("not json at all", rec));
  EXPECT_FALSE(parse_checkpoint_line(
      "{\"i\":1,\"failure\":{\"kind\":\"no-such-kind\"}}", rec));       // unknown kind
}

TEST_F(CheckpointTest, UntrustedIntegersAndValuesAreSkipped) {
  const std::vector<std::string> bad = {
      "{\"i\":1e300,\"ok\":true}",
      "{\"i\":2.5,\"ok\":true}",
      "{\"i\":-1,\"ok\":true}",
      "{\"i\":0,\"ok\":true,\"attempts\":1e300}",
      "{\"i\":0,\"ok\":false,\"failure\":{\"kind\":\"timeout\",\"iteration\":2.5}}",
      "{\"i\":0,\"ok\":false,\"failure\":{\"kind\":\"timeout\",\"rescue\":null}}",
      "{\"i\":0,\"ok\":true,\"metrics\":[[\"r\",true]]}",
      "{\"i\":0,\"ok\":true,\"params\":[[\"r\",\"1.5\"]]}",
  };
  PointRecord rec;
  for (const auto& line : bad) EXPECT_FALSE(parse_checkpoint_line(line, rec)) << line;

  // In a journal they are skipped like torn lines; the valid record stays.
  const std::string path = temp_path("untrusted");
  {
    std::ofstream f(path);
    f << "{\"i\":1,\"ok\":true,\"metrics\":[[\"m\",2]]}\n";
    for (const auto& line : bad) f << line << "\n";
  }
  CheckpointData data;
  std::string err;
  ASSERT_TRUE(load_checkpoint(path, data, &err));
  EXPECT_NE(err.find(std::to_string(bad.size()) + " malformed"), std::string::npos) << err;
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_EQ(data.records.at(1).outcome.metrics[0].second, 2.0);
}

TEST_F(CheckpointTest, EveryProperPrefixIsTornAndKeepsEarlierRecords) {
  SweepPoint point;
  point.params = {{"a", 1.0 / 3.0}, {"b", -kInf}};
  SweepOutcome ok_out;
  ok_out.ok = true;
  ok_out.attempts = 1;
  ok_out.metrics = {{"m", 0.1}, {"dead", -kInf}, {"nan", kNaN}};
  SweepOutcome fail_out;
  fail_out.attempts = 2;
  fail_out.error = "weird \"quoted\"\nerror";
  fail_out.failure = make_failure(FailureKind::timeout, "tran", "d \\ x", 1.25e-5, 7, 1);
  const std::string earlier =
      checkpoint_line(0, point, ok_out) + "\n" + checkpoint_line(2, point, fail_out) + "\n";

  const std::string path = temp_path("prefix");
  for (const SweepOutcome* out : {&ok_out, &fail_out}) {
    const std::string line = checkpoint_line(1, point, *out);
    PointRecord rec;
    ASSERT_TRUE(parse_checkpoint_line(line, rec)) << line;
    for (std::size_t n = 0; n < line.size(); ++n) {
      const std::string prefix = line.substr(0, n);
      EXPECT_FALSE(parse_checkpoint_line(prefix, rec)) << prefix;
      {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << earlier << prefix;
      }
      CheckpointData data;
      ASSERT_TRUE(load_checkpoint(path, data));
      ASSERT_EQ(data.records.size(), 2u) << prefix;
      EXPECT_TRUE(same_bits(data.records.at(0).outcome.metrics, ok_out.metrics));
      EXPECT_EQ(data.records.at(2).outcome.failure.kind, FailureKind::timeout);
      EXPECT_EQ(data.records.at(2).outcome.error, fail_out.error);
    }
  }
}

TEST_F(CheckpointTest, ParseIgnoresUnknownKeysForForwardCompatibility) {
  PointRecord rec;
  ASSERT_TRUE(parse_checkpoint_line(
      "{\"i\":3,\"ok\":true,\"future\":{\"nested\":[1,\"x\",null,{}]},"
      "\"metrics\":[[\"m\",2]]}",
      rec));
  EXPECT_EQ(rec.index, 3);
  EXPECT_TRUE(rec.outcome.ok);
  ASSERT_EQ(rec.outcome.metrics.size(), 1u);
  EXPECT_EQ(rec.outcome.metrics[0].second, 2.0);
}

TEST_F(CheckpointTest, UnicodeEscapesDecodeToUtf8) {
  PointRecord rec;
  ASSERT_TRUE(parse_checkpoint_line(
      "{\"i\":0,\"error\":\"\\u0041\\u00e9\\u03a9\\u20ac\\u0009\"}", rec));
  EXPECT_EQ(rec.outcome.error, "A\xc3\xa9\xce\xa9\xe2\x82\xac\t");
  // The writer's own control-character escapes still round-trip.
  SweepOutcome out;
  out.error = std::string("bell\x07") + "nul" + std::string(1, '\0') + "end";
  ASSERT_TRUE(parse_checkpoint_line(checkpoint_line(0, {}, out), rec));
  EXPECT_EQ(rec.outcome.error, out.error);
  // Bad hex digits are malformed, not silently truncated.
  EXPECT_FALSE(parse_checkpoint_line("{\"i\":0,\"error\":\"\\u00zz\"}", rec));
  EXPECT_FALSE(parse_checkpoint_line("{\"i\":0,\"error\":\"\\u00", rec));
}

TEST_F(CheckpointTest, DeeplyNestedUnknownValueIsSalvagedAsTorn) {
  // 100k nested '[' under an unknown key: rejected at the depth cap instead
  // of recursing once per bracket.
  const std::string deep = "{\"i\":0,\"junk\":" + std::string(100000, '[');
  PointRecord rec;
  EXPECT_FALSE(parse_checkpoint_line(deep, rec));

  const std::string path = temp_path("deep");
  {
    SweepPoint p0;
    p0.params = {{"k", 0.0}};
    SweepOutcome ok_out;
    ok_out.ok = true;
    ok_out.metrics = {{"m", 1.0}};
    CheckpointWriter writer(path);
    writer.append(1, p0, ok_out);
  }
  {
    std::ofstream junk(path, std::ios::app);
    junk << deep << "\n";
  }
  CheckpointData data;
  std::string err;
  ASSERT_TRUE(load_checkpoint(path, data, &err));
  EXPECT_NE(err.find("1 malformed"), std::string::npos);
  ASSERT_EQ(data.records.size(), 1u);
  EXPECT_TRUE(data.records.at(1).outcome.ok);
  // Nesting within the cap is still skipped as an unknown value.
  const std::string nested = "{\"i\":2,\"junk\":" + std::string(32, '[') +
                             std::string(32, ']') + "}";
  EXPECT_TRUE(parse_checkpoint_line(nested, rec));
}

// ---------------------------------------------------------------------------
// File round-trip
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, LoadSkipsTornTailAndKeepsLastRecordPerIndex) {
  const std::string path = temp_path("file");
  SweepPoint p0;
  p0.params = {{"k", 0.0}};
  {
    CheckpointWriter writer(path);
    SweepOutcome fail_out;
    fail_out.ok = false;
    fail_out.error = "first try";
    fail_out.failure = make_failure(FailureKind::newton_divergence, "dc");
    writer.append(0, p0, fail_out);
    SweepOutcome ok_out;
    ok_out.ok = true;
    ok_out.metrics = {{"m", 42.0}};
    writer.append(0, p0, ok_out);  // re-run of the same point: must win
    writer.append(1, p0, ok_out);
  }
  {
    // A kill mid-write leaves a torn line; it must not poison the file.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"i\":2,\"ok\":tr";
  }
  CheckpointData data;
  std::string err;
  ASSERT_TRUE(load_checkpoint(path, data, &err));
  EXPECT_NE(err.find("1 malformed"), std::string::npos);
  ASSERT_EQ(data.records.size(), 2u);
  EXPECT_TRUE(data.records.at(0).outcome.ok);  // the later ok record won
  EXPECT_EQ(data.records.at(0).outcome.metrics[0].second, 42.0);
  EXPECT_TRUE(data.records.at(1).outcome.ok);
}

TEST_F(CheckpointTest, LoadFailsOnlyOnUnreadableFile) {
  CheckpointData data;
  std::string err;
  EXPECT_FALSE(load_checkpoint(temp_path("missing"), data, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// SweepRunner integration: checkpoint, resume, shard, retry
// ---------------------------------------------------------------------------

std::vector<SweepPoint> small_grid() {
  return sweep_grid({SweepAxis::linspace("a", 0.1, 0.9, 3),
                     SweepAxis::linspace("b", 1.0, 2.0, 2)});
}

TEST_F(CheckpointTest, ResumeRestoresCompletedPointsBitIdentically) {
  const std::string path = temp_path("resume");
  const auto grid = small_grid();
  std::atomic<int> runs{0};
  const auto job = [&runs](const SweepPoint& p, int) {
    ++runs;
    SweepOutcome o;
    o.ok = true;
    o.metrics = {{"m", metric_of(p)}};
    return o;
  };
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.checkpoint_path = path;
  const auto first = runner.run(grid, job, opts);
  ASSERT_EQ(runs.load(), static_cast<int>(grid.size()));
  for (const auto& r : first) ASSERT_TRUE(r.ok);

  runs = 0;
  SweepOptions resume_opts;
  resume_opts.resume_path = path;
  const auto second = runner.run(grid, job, resume_opts);
  EXPECT_EQ(runs.load(), 0) << "all points were complete — nothing may re-run";
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_TRUE(second[k].restored);
    EXPECT_EQ(second[k].attempts, 0);
    // Bit-identical through the decimal journal (%.17g round-trip).
    EXPECT_EQ(second[k].metrics, first[k].metrics);
  }
}

TEST_F(CheckpointTest, LegacyBareInfLineIsTornAndItsPointReruns) {
  // Journals written before non-finite values were quoted carry a bare
  // -inf, which is not JSON: the line is salvaged as torn, its point runs
  // again and reproduces the same outcome.
  const std::string path = temp_path("legacy");
  const auto grid = small_grid();
  std::atomic<int> runs{0};
  const auto job = [&runs](const SweepPoint& p, int) {
    ++runs;
    SweepOutcome o;
    o.ok = true;
    o.metrics = {{"m", metric_of(p)}, {"dead", -kInf}};
    return o;
  };
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.checkpoint_path = path;
  const auto first = runner.run(grid, job, opts);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), grid.size());
  PointRecord legacy;
  ASSERT_TRUE(parse_checkpoint_line(lines[0], legacy));
  const auto quoted = lines[0].find("\"-inf\"");
  ASSERT_NE(quoted, std::string::npos) << lines[0];
  lines[0].replace(quoted, 6, "-inf");
  {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& line : lines) out << line << "\n";
  }

  runs = 0;
  SweepOptions resume_opts;
  resume_opts.resume_path = path;
  const auto second = runner.run(grid, job, resume_opts);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_FALSE(second[static_cast<std::size_t>(legacy.index)].restored);
  for (std::size_t k = 0; k < grid.size(); ++k)
    EXPECT_TRUE(same_bits(second[k].metrics, first[k].metrics)) << k;
}

TEST_F(CheckpointTest, ResumeRerunsOnlyFailedPoints) {
  const std::string path = temp_path("rerun");
  const auto grid = small_grid();
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.checkpoint_path = path;
  // First pass: point 2 fails.
  runner.run(
      grid,
      [](const SweepPoint& p, int) {
        SweepOutcome o;
        if (p.value("a") > 0.45 && p.value("a") < 0.55) {  // the middle "a" value
          o.ok = false;
          o.error = "flaky";
          return o;
        }
        o.ok = true;
        o.metrics = {{"m", metric_of(p)}};
        return o;
      },
      opts);
  // Second pass: a healthy job, resuming. Only the two failed points
  // (a = 0.5, both b values) may run.
  std::atomic<int> runs{0};
  SweepOptions resume_opts;
  resume_opts.resume_path = path;
  const auto second = runner.run(
      grid,
      [&runs](const SweepPoint& p, int) {
        ++runs;
        SweepOutcome o;
        o.ok = true;
        o.metrics = {{"m", metric_of(p)}};
        return o;
      },
      resume_opts);
  EXPECT_EQ(runs.load(), 2);
  for (const auto& r : second) EXPECT_TRUE(r.ok);
  int restored = 0;
  for (const auto& r : second) restored += r.restored ? 1 : 0;
  EXPECT_EQ(restored, static_cast<int>(grid.size()) - 2);
}

TEST_F(CheckpointTest, ResumeRefusesForeignCheckpoints) {
  const std::string path = temp_path("foreign");
  const auto grid = small_grid();
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.checkpoint_path = path;
  const auto ok_job = [](const SweepPoint& p, int) {
    SweepOutcome o;
    o.ok = true;
    o.metrics = {{"m", metric_of(p)}};
    return o;
  };
  runner.run(grid, ok_job, opts);

  SweepOptions resume_opts;
  resume_opts.resume_path = path;
  // Different parameter values at the same indices: wrong checkpoint.
  const auto other_grid = sweep_grid({SweepAxis::linspace("a", 5.0, 9.0, 3),
                                      SweepAxis::linspace("b", 1.0, 2.0, 2)});
  EXPECT_THROW(runner.run(other_grid, ok_job, resume_opts), std::runtime_error);
  // A smaller grid: recorded indices fall outside it.
  const auto tiny_grid = sweep_grid({SweepAxis::linspace("a", 0.1, 0.9, 1)});
  EXPECT_THROW(runner.run(tiny_grid, ok_job, resume_opts), std::runtime_error);
}

TEST_F(CheckpointTest, ShardOwnsPartitionsDeterministically) {
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(shard_owns(i, 0, 0));  // unsharded owns everything
    EXPECT_TRUE(shard_owns(i, 1, 1));
    int owners = 0;
    for (int k = 1; k <= 3; ++k) owners += shard_owns(i, k, 3) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "index " << i << " must belong to exactly one of 3 shards";
  }
  EXPECT_TRUE(shard_owns(0, 1, 2));
  EXPECT_FALSE(shard_owns(1, 1, 2));
  EXPECT_TRUE(shard_owns(1, 2, 2));
}

TEST_F(CheckpointTest, ShardFilesMergeByConcatenation) {
  const std::string path1 = temp_path("shard1");
  const std::string path2 = temp_path("shard2");
  const std::string merged = temp_path("merged");
  const auto grid = small_grid();
  const SweepRunner runner(1);
  const auto job = [](const SweepPoint& p, int) {
    SweepOutcome o;
    o.ok = true;
    o.metrics = {{"m", metric_of(p)}};
    return o;
  };
  SweepOptions s1;
  s1.checkpoint_path = path1;
  s1.shard_index = 1;
  s1.shard_count = 2;
  const auto r1 = runner.run(grid, job, s1);
  SweepOptions s2;
  s2.checkpoint_path = path2;
  s2.shard_index = 2;
  s2.shard_count = 2;
  const auto r2 = runner.run(grid, job, s2);
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_NE(r1[k].skipped, r2[k].skipped) << "point " << k;
    EXPECT_EQ(r1[k].ok, !r1[k].skipped);
    EXPECT_EQ(r2[k].ok, !r2[k].skipped);
  }
  {
    // The documented merge procedure: cat shard1 shard2 > merged.
    std::ofstream out(merged, std::ios::binary);
    for (const auto& p : {path1, path2}) {
      std::ifstream in(p, std::ios::binary);
      out << in.rdbuf();
    }
  }
  std::atomic<int> runs{0};
  SweepOptions resume_opts;
  resume_opts.resume_path = merged;
  const auto full = runner.run(
      grid,
      [&runs](const SweepPoint&, int) {
        ++runs;
        return SweepOutcome{};
      },
      resume_opts);
  EXPECT_EQ(runs.load(), 0) << "the merged shards cover the whole grid";
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_TRUE(full[k].restored);
    const auto& src = r1[k].skipped ? r2[k] : r1[k];
    EXPECT_EQ(full[k].metrics, src.metrics);
  }
}

TEST_F(CheckpointTest, RetriesEscalateWithAttemptCounter) {
  std::vector<SweepPoint> grid(1);
  grid[0].params = {{"k", 1.0}};
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.retries = 3;
  std::vector<int> seen_attempts;
  const auto results = runner.run(
      grid,
      [&seen_attempts](const SweepPoint&, int attempt) {
        seen_attempts.push_back(attempt);
        SweepOutcome o;
        o.ok = attempt >= 2;  // succeeds on the third try
        if (!o.ok) o.error = "not yet";
        return o;
      },
      opts);
  EXPECT_EQ(seen_attempts, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 3);
}

TEST_F(CheckpointTest, ExhaustedRetriesKeepTheLastStructuredFailure) {
  std::vector<SweepPoint> grid(1);
  grid[0].params = {{"k", 1.0}};
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.retries = 2;
  const auto results = runner.run(
      grid,
      [](const SweepPoint&, int) -> SweepOutcome { throw std::runtime_error("boom"); },
      opts);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].attempts, 3);  // 1 + 2 retries
  EXPECT_EQ(results[0].error, "boom");
  EXPECT_EQ(results[0].failure.kind, FailureKind::internal_error);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: injected per-point failures, checkpoint, resume
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, InjectedPointFailureIsJournaledAndResumedExactly) {
  if (!fault::compiled_in()) GTEST_SKIP() << "needs -DUSYS_FAULT_INJECT=ON";
  const std::string path = temp_path("inject");
  std::vector<SweepPoint> grid(4);
  for (int k = 0; k < 4; ++k)
    grid[k].params = {{"r2", 1e3 * (1.0 + k)}};
  // Each job runs exactly ONE Newton solve (ladders off), so with a single
  // worker the grid order maps 1:1 onto newton.stall hit numbers.
  const auto job = [](const SweepPoint& p, int) {
    Circuit ckt;
    const int in = ckt.add_node("in", Nature::electrical);
    const int mid = ckt.add_node("mid", Nature::electrical);
    ckt.add<VSource>("V1", in, Circuit::kGround, 10.0);
    ckt.add<Resistor>("R1", in, mid, 1e3);
    ckt.add<Resistor>("R2", mid, Circuit::kGround, p.value("r2"));
    DcOptions dc;
    dc.allow_gmin_stepping = false;
    dc.allow_source_stepping = false;
    const OpResult res = api::operating_point(ckt, dc);
    SweepOutcome o;
    o.ok = res.converged;
    o.failure = res.failure;
    if (!res.converged)
      o.error = res.failure.to_string();
    else
      o.metrics = {{"vmid", res.x[static_cast<std::size_t>(mid)]}};
    return o;
  };
  const SweepRunner runner(1);
  SweepOptions opts;
  opts.checkpoint_path = path;
  fault::arm("newton.stall", 3, 1);  // the third point's solve fails
  const auto first = runner.run(grid, job, opts);
  fault::disarm_all();
  EXPECT_TRUE(first[0].ok && first[1].ok && first[3].ok);
  EXPECT_FALSE(first[2].ok);
  EXPECT_EQ(first[2].failure.kind, FailureKind::newton_divergence);

  // The journal carries the structured verdict for the failed point.
  CheckpointData data;
  ASSERT_TRUE(load_checkpoint(path, data));
  ASSERT_EQ(data.records.size(), 4u);
  EXPECT_EQ(data.records.at(2).outcome.failure.kind, FailureKind::newton_divergence);

  // Resume re-runs ONLY the failed point; the rest restore bit-identically.
  std::atomic<int> runs{0};
  SweepOptions resume_opts;
  resume_opts.resume_path = path;
  const auto second = runner.run(
      grid,
      [&](const SweepPoint& p, int attempt) {
        ++runs;
        return job(p, attempt);
      },
      resume_opts);
  EXPECT_EQ(runs.load(), 1);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_TRUE(second[k].ok) << k;
  for (const std::size_t k : {0u, 1u, 3u}) {
    EXPECT_TRUE(second[k].restored);
    EXPECT_EQ(second[k].metrics, first[k].metrics);
  }
  EXPECT_FALSE(second[2].restored);
}

}  // namespace
}  // namespace usys::spice
