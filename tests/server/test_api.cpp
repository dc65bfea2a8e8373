// usys::api facade coverage: content hashing, override parsing, Session
// provenance accounting (cold pays parse/bind, warm pays neither), the
// rebind() delta path vs a cold run of the edited netlist, baseline
// restoration after overrides, device set_param/get_param contracts, and
// the SeriesView tabular extraction the CLI and the server share.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "hdl/interpreter.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::api {
namespace {

const char* kRcNetlist = R"(* rc lowpass
V1 in 0 5
R1 in out 1k
C1 out 0 1u
.op
.tran 10u 2m
.end
)";

const char* kRcEdited = R"(* rc lowpass
V1 in 0 5
R1 in out 2k
C1 out 0 1u
.op
.tran 10u 2m
.end
)";

void expect_identical_tran(const spice::TranResult& a, const spice::TranResult& b) {
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t k = 0; k < a.time.size(); ++k) {
    EXPECT_EQ(a.time[k], b.time[k]);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(a.at(k, i), b.at(k, i));
  }
}

// --- identity ----------------------------------------------------------------

TEST(ContentHash, StableAndCollisionResistant) {
  const std::string h = content_hash(kRcNetlist);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h, content_hash(kRcNetlist));            // deterministic
  EXPECT_NE(h, content_hash(kRcEdited));             // text matters
  EXPECT_NE(h, content_hash(kRcNetlist, "ast"));     // hdl mode is identity
  // The field separator keeps (netlist, mode) unambiguous.
  EXPECT_NE(content_hash("ab", ""), content_hash("a", "b"));
  // Pinned: the hash names server cache entries, so it must not move.
  EXPECT_EQ(content_hash("V1 in 0 1\nR1 in 0 1k\n.op\n.end\n", "ast"), "b8ee4effd6758e22");
}

TEST(ParseOverride, AcceptsSpiceNumberSyntax) {
  ParamOverride ov;
  ASSERT_TRUE(parse_override("R1.r=2k", ov));
  EXPECT_EQ(ov.device, "R1");
  EXPECT_EQ(ov.param, "r");
  EXPECT_DOUBLE_EQ(ov.value, 2000.0);
  ASSERT_TRUE(parse_override("XK3.K=25", ov));  // param key lower-cases
  EXPECT_EQ(ov.device, "XK3");
  EXPECT_EQ(ov.param, "k");
  ASSERT_TRUE(parse_override(" V1.dc = -2.5 ", ov));  // whitespace tolerated
  EXPECT_EQ(ov.device, "V1");
  EXPECT_DOUBLE_EQ(ov.value, -2.5);
  ASSERT_TRUE(parse_override("C1.c=1.5u", ov));
  EXPECT_DOUBLE_EQ(ov.value, 1.5e-6);
}

TEST(ParseOverride, RejectsMalformedSpecs) {
  ParamOverride ov;
  EXPECT_FALSE(parse_override("R1=5", ov));      // no param
  EXPECT_FALSE(parse_override(".r=5", ov));      // no device
  EXPECT_FALSE(parse_override("R1.=5", ov));     // empty param
  EXPECT_FALSE(parse_override("R1.r", ov));      // no value
  EXPECT_FALSE(parse_override("R1.r=abc", ov));  // not a number
  EXPECT_FALSE(parse_override("", ov));
}

// --- session provenance ------------------------------------------------------

TEST(Session, FirstRunPaysParseBindThenWarmRunsAreFree) {
  Session session(kRcNetlist);
  const JobResult cold = session.run();
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_TRUE(cold.parsed);
  EXPECT_TRUE(cold.bound);
  EXPECT_FALSE(cold.rebound);
  ASSERT_EQ(cold.analyses.size(), 2u);

  const JobResult warm = session.run();
  ASSERT_TRUE(warm.ok);
  EXPECT_FALSE(warm.parsed);
  EXPECT_FALSE(warm.bound);
  // Same analysis regime on a warm engine: the compiled pattern and the
  // symbolic factorization are reused wholesale.
  EXPECT_EQ(warm.symbolic_factorizations, 0);

  // Warm reruns are bit-identical to the cold run, not merely close.
  expect_identical_tran(cold.analyses[1].tran, warm.analyses[1].tran);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(cold.analyses[0].op.at(i), warm.analyses[0].op.at(i));
}

TEST(Session, MatchesFacadeFreeFunctions) {
  Session session(kRcNetlist);
  const JobResult r = session.run();
  ASSERT_TRUE(r.ok);
  Session fresh(kRcNetlist);
  const spice::OpResult op = usys::api::operating_point(fresh.circuit());
  ASSERT_TRUE(op.converged);
  for (int i = 0; i < 2; ++i) EXPECT_NEAR(r.analyses[0].op.at(i), op.at(i), 1e-12);
}

TEST(Session, DefaultOpWhenNetlistHasNoCards) {
  Session session("* bare\nV1 a 0 2\nR1 a 0 1k\n.end\n");
  EXPECT_TRUE(session.cards().empty());
  const JobResult r = session.run();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.analyses.size(), 1u);
  EXPECT_EQ(r.analyses[0].kind, spice::AnalysisCard::Kind::op);
  EXPECT_NEAR(r.analyses[0].op.at(0), 2.0, 1e-9);
}

TEST(Session, UnrepresentableTimeoutRunsUnbudgeted) {
  // usim --timeout and JobOptions::timeout_ms reach Deadline::after_ms: a
  // budget past steady_clock's range must run, not time out at once.
  for (const double ms : {1e15, 1e300, std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity()}) {
    Session session(kRcNetlist);
    JobRequest req;
    req.options.timeout_ms = ms;
    const JobResult r = session.run(req);
    EXPECT_TRUE(r.ok) << ms << ": " << r.error;
    EXPECT_EQ(r.exit_code, 0) << ms;
  }
}

TEST(Session, MalformedNetlistThrowsNetlistError) {
  EXPECT_THROW(Session("V1 in 0 not_a_number\n.end\n"), spice::NetlistError);
}

TEST(Session, CoolShedsWarmSolverState) {
  Session session(kRcNetlist);
  const JobResult cold = session.run();
  ASSERT_TRUE(cold.ok);
  EXPECT_TRUE(session.warm());
  session.engine().cool();  // the server's cooling step
  EXPECT_FALSE(session.warm());
  // A cooled session re-warms transparently — and still bit-identically.
  const JobResult rewarmed = session.run();
  ASSERT_TRUE(rewarmed.ok);
  EXPECT_TRUE(session.warm());
  expect_identical_tran(cold.analyses[1].tran, rewarmed.analyses[1].tran);
}

// --- parameter-override delta path -------------------------------------------

TEST(Session, OverrideDeltaMatchesColdRunOfEditedNetlist) {
  Session warm(kRcNetlist);
  ASSERT_TRUE(warm.run().ok);  // prime

  JobRequest jr;
  jr.overrides.push_back({"R1", "r", 2000.0});
  const JobResult delta = warm.run(jr);
  ASSERT_TRUE(delta.ok);
  EXPECT_TRUE(delta.rebound);
  EXPECT_FALSE(delta.parsed);

  Session cold(kRcEdited);
  const JobResult want = cold.run();
  ASSERT_TRUE(want.ok);
  ASSERT_EQ(delta.analyses[1].tran.time.size(), want.analyses[1].tran.time.size());
  for (std::size_t k = 0; k < want.analyses[1].tran.time.size(); ++k)
    for (int i = 0; i < 2; ++i)
      EXPECT_NEAR(delta.analyses[1].tran.at(k, i), want.analyses[1].tran.at(k, i),
                  1e-12);
}

TEST(Session, OverridesAreRestoredAfterTheJob) {
  Session baseline(kRcNetlist);
  const JobResult base = baseline.run();

  Session session(kRcNetlist);
  ASSERT_TRUE(session.run().ok);
  JobRequest jr;
  jr.overrides.push_back({"R1", "r", 470.0});
  jr.overrides.push_back({"V1", "dc", 3.0});
  ASSERT_TRUE(session.run(jr).ok);
  // After the override job the session must match its netlist text again.
  const JobResult restored = session.run();
  ASSERT_TRUE(restored.ok);
  expect_identical_tran(base.analyses[1].tran, restored.analyses[1].tran);
}

TEST(Session, BadOverridesAreExit2AndLeaveTheSessionUsable) {
  Session session(kRcNetlist);
  JobRequest unknown_dev;
  unknown_dev.overrides.push_back({"R99", "r", 10.0});
  const JobResult r1 = session.run(unknown_dev);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.exit_code, 2);
  EXPECT_TRUE(r1.analyses.empty());
  EXPECT_NE(r1.error.find("unknown device"), std::string::npos);

  JobRequest unknown_param;
  unknown_param.overrides.push_back({"R1", "bogus", 10.0});
  const JobResult r2 = session.run(unknown_param);
  EXPECT_EQ(r2.exit_code, 2);
  EXPECT_NE(r2.error.find("does not expose"), std::string::npos);

  JobRequest bad_value;  // a zero resistance would divide the stamp
  bad_value.overrides.push_back({"R1", "r", 0.0});
  const JobResult r3 = session.run(bad_value);
  EXPECT_EQ(r3.exit_code, 2);
  EXPECT_NE(r3.error.find("rejected"), std::string::npos);

  const JobResult ok = session.run();
  EXPECT_TRUE(ok.ok);
}

// --- device parameter contracts ----------------------------------------------

TEST(DeviceParams, PassiveAndShadowedMechanicalKeys) {
  spice::Circuit ckt;
  const int a = ckt.add_node("a", Nature::electrical);
  const int x = ckt.add_node("x", Nature::mechanical_translation);
  auto& r = ckt.add<spice::Resistor>("R1", a, spice::Circuit::kGround, 100.0);
  auto& k = ckt.add<spice::Spring>("K1", x, spice::Circuit::kGround, 25.0);

  double v = 0.0;
  ASSERT_TRUE(r.get_param("r", v));
  EXPECT_DOUBLE_EQ(v, 100.0);
  EXPECT_TRUE(r.set_param("r", 220.0));
  ASSERT_TRUE(r.get_param("r", v));
  EXPECT_DOUBLE_EQ(v, 220.0);
  EXPECT_FALSE(r.set_param("r", 0.0));  // zero divides the stamp
  EXPECT_FALSE(r.set_param("c", 1.0));  // not a resistor key

  // Spring exposes its own netlist key "k" and SHADOWS the inherited
  // inductor key, keeping the cached stiffness and the stamped l = 1/k in
  // sync by construction.
  ASSERT_TRUE(k.get_param("k", v));
  EXPECT_DOUBLE_EQ(v, 25.0);
  EXPECT_FALSE(k.get_param("l", v));
  EXPECT_TRUE(k.set_param("k", 50.0));
  ASSERT_TRUE(k.get_param("k", v));
  EXPECT_DOUBLE_EQ(v, 50.0);
}

TEST(DeviceParams, SourceDcOnlyWhileWaveformIsDc) {
  // A DC source round-trips its "dc" value; a PULSE source rejects the key
  // outright (an override could not be restored to the original waveform).
  Session dc_session("V1 a 0 5\nR1 a 0 1k\n.end\n");
  spice::Device* v_dc = dc_session.circuit().find_device("V1");
  ASSERT_NE(v_dc, nullptr);
  double v = 0.0;
  ASSERT_TRUE(v_dc->get_param("dc", v));
  EXPECT_DOUBLE_EQ(v, 5.0);
  EXPECT_TRUE(v_dc->set_param("dc", 7.5));
  ASSERT_TRUE(v_dc->get_param("dc", v));
  EXPECT_DOUBLE_EQ(v, 7.5);

  Session pulse_session("V1 a 0 PULSE(0 5 1m 0.1m 0.1m 2m)\nR1 a 0 1k\n.tran 1u 1m\n.end\n");
  spice::Device* v_pulse = pulse_session.circuit().find_device("V1");
  ASSERT_NE(v_pulse, nullptr);
  EXPECT_FALSE(v_pulse->get_param("dc", v));
  EXPECT_FALSE(v_pulse->set_param("dc", 1.0));
}

TEST(DeviceParams, SetParamRejectsExactlyWhatTheConstructorThrowsOn) {
  // A warm sweep point applies a drawn value through set_param, a cold one
  // through the constructor: both must accept or refuse the same values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    const char* key;
    std::function<std::unique_ptr<spice::Device>(double)> make;
  };
  const std::vector<Row> rows = {
      {"r", [](double v) { return std::make_unique<spice::Resistor>("R", 0, 1, v); }},
      {"c", [](double v) { return std::make_unique<spice::Capacitor>("C", 0, 1, v); }},
      {"l", [](double v) { return std::make_unique<spice::Inductor>("L", 0, 1, v); }},
      {"m", [](double v) { return std::make_unique<spice::Mass>("M", 0, v); }},
      {"k", [](double v) { return std::make_unique<spice::Spring>("K", 0, 1, v); }},
      {"alpha", [](double v) { return std::make_unique<spice::Damper>("D", 0, 1, v); }},
      {"dc", [](double v) { return std::make_unique<spice::VSource>("V", 0, 1, v); }},
      {"dc", [](double v) { return std::make_unique<spice::ISource>("I", 0, 1, v); }},
  };
  for (const Row& row : rows) {
    const auto dev = row.make(1.0);
    for (const double v : {-1.0, 0.0, 1e-300, inf, -inf, nan}) {
      bool throws = false;
      try {
        row.make(v);
      } catch (const std::invalid_argument&) {
        throws = true;
      }
      EXPECT_EQ(throws, !dev->set_param(row.key, v)) << row.key << " = " << v;
    }
  }
}

// --- reused-session ASSERT record --------------------------------------------

TEST(Session, AssertFiredInAnEarlierJobDoesNotFailTheNext) {
  // An ASSERT guard (vmax - V > 0) on a 0.5 V drive: the first job lowers
  // vmax below the drive so the guard fires; the second runs the netlist's
  // own vmax = 1 and must not inherit the first job's firing.
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
  spice::Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  ckt.add<spice::VSource>("V1", drive, spice::Circuit::kGround, 0.5);
  ckt.add<spice::Resistor>("R1", drive, spice::Circuit::kGround, 1e3);
  ckt.add_device(hdl::instantiate("XG", model, "guard", {{"vmax", 1.0}},
                                  {drive, spice::Circuit::kGround}));
  Session session(ckt);

  spice::AnalysisCard tran;
  tran.kind = spice::AnalysisCard::Kind::tran;
  tran.tran.tstop = 1e-3;
  tran.tran.fail_on_assert = true;

  JobRequest tripped;
  tripped.analyses = {tran};
  tripped.overrides.push_back({"XG", "vmax", 0.1});
  const JobResult first = session.run(tripped);
  ASSERT_FALSE(first.ok);
  EXPECT_EQ(first.failure.kind, FailureKind::assert_violation);

  JobRequest clean;
  clean.analyses = {tran};
  const JobResult second = session.run(clean);
  EXPECT_TRUE(second.ok) << second.error;
}

// --- series view -------------------------------------------------------------

TEST(SeriesView, OpTranAcShapes) {
  Session session(R"(* shapes
V1 in 0 0 AC 1
R1 in out 1k
C1 out 0 1u
.op
.tran 10u 1m
.ac dec 5 10 10k
.end
)");
  const JobResult r = session.run();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.analyses.size(), 3u);

  const SeriesView op = series_view(r.analyses[0], session.circuit());
  ASSERT_EQ(op.columns.size(), 2u);
  EXPECT_EQ(op.columns[0], "in");
  EXPECT_EQ(op.columns[1], "out");
  EXPECT_EQ(op.rows, 1u);
  EXPECT_EQ(op.row_at(0)[0], r.analyses[0].op.at(0));

  const SeriesView tran = series_view(r.analyses[1], session.circuit());
  ASSERT_EQ(tran.columns.size(), 3u);
  EXPECT_EQ(tran.columns[0], "t [s]");
  EXPECT_EQ(tran.rows, r.analyses[1].tran.time.size());
  const auto row1 = tran.row_at(1);
  EXPECT_EQ(row1[0], r.analyses[1].tran.time[1]);
  EXPECT_EQ(row1[2], r.analyses[1].tran.at(1, 1));

  const SeriesView ac = series_view(r.analyses[2], session.circuit());
  ASSERT_EQ(ac.columns.size(), 5u);  // f + (dB, deg) per node
  EXPECT_EQ(ac.columns[0], "f [Hz]");
  EXPECT_EQ(ac.columns[1], "in dB");
  EXPECT_EQ(ac.columns[2], "in deg");
  EXPECT_EQ(ac.rows, r.analyses[2].ac.freq.size());
  const auto acrow = ac.row_at(0);
  EXPECT_EQ(acrow[0], r.analyses[2].ac.freq[0]);
  EXPECT_EQ(acrow[1], r.analyses[2].ac.magnitude_db(0, 0));
}

// --- sweep jobs --------------------------------------------------------------

const char* kMcDivider = R"(* mc divider
V1 in 0 {vd}
R1 in out {r}
R2 out 0 1000
.param r dist=normal(1k,50)
.param vd dist=uniform(4.5,5.5)
.measure vout op:out min=2.2 max=2.8
.op
.end
)";

SweepRequest mc_request(std::vector<std::string> specs, std::string seed = "0",
                        int mc = 1) {
  SweepRequest req;
  req.netlist = kMcDivider;
  req.specs = std::move(specs);
  req.seed = std::move(seed);
  req.mc = mc;
  return req;
}

TEST(SweepPlan, SeedIsDecimalDigitsUpToTwoToTheSixtyFour) {
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(plan_sweep(mc_request({}, "007"), plan, error)) << error;
  EXPECT_EQ(plan.mc.seed, 7u);
  ASSERT_TRUE(plan_sweep(mc_request({}, "18446744073709551615"), plan, error)) << error;
  EXPECT_EQ(plan.mc.seed, std::numeric_limits<std::uint64_t>::max());
  for (const std::string bad : {"", "-1", "+7", " 7", "7 ", "18446744073709551616",
                                "99999999999999999999999", "1e3", "0x10"}) {
    EXPECT_FALSE(plan_sweep(mc_request({}, bad), plan, error)) << "'" << bad << "'";
    EXPECT_EQ(error, "bad seed '" + bad +
                         "' (want decimal digits, at most 18446744073709551615)");
  }
}

TEST(SweepPlan, RequestDistReplacesNetlistCardAndNamesAreChecked) {
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(plan_sweep(mc_request({"r=normal(1000,1)", "load=1,2"}), plan, error))
      << error;
  ASSERT_EQ(plan.dists.size(), 2u);
  EXPECT_EQ(plan.dists[0].name, "r");  // replaced in place, card order kept
  EXPECT_EQ(plan.dists[0].b, 1.0);
  ASSERT_EQ(plan.axes.size(), 1u);
  EXPECT_EQ(plan.axes[0].name, "load");
  ASSERT_EQ(plan.measures.size(), 1u);

  EXPECT_FALSE(plan_sweep(mc_request({"vd=1,2"}), plan, error));
  EXPECT_EQ(error, "'vd' is both a sweep axis and a parameter distribution");
  for (const std::string name : {"i", "i+1", "i-12"}) {
    EXPECT_FALSE(plan_sweep(mc_request({name + "=5,6"}), plan, error)) << name;
    EXPECT_EQ(error, "sweep parameter '" + name +
                         "' collides with .array {i} placeholders; pick another name");
  }
  EXPECT_TRUE(plan_sweep(mc_request({"ix=5,6"}), plan, error)) << error;
  EXPECT_FALSE(plan_sweep(mc_request({"r=cauchy(0,1)"}), plan, error));
  EXPECT_EQ(error.rfind("bad sweep spec 'r=cauchy(0,1)': ", 0), 0u) << error;

  SweepRequest bad_card = mc_request({});
  bad_card.netlist += ".param q dist=normal(1,-1)\n";
  EXPECT_FALSE(plan_sweep(bad_card, plan, error));
  EXPECT_FALSE(error.empty());
}

TEST(SweepPlan, PointCountIsExactBeforeTheGridExists) {
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(plan_sweep(mc_request({"load=1,2,3", "t=corner(-40,25)"}, "9", 4), plan,
                         error))
      << error;
  const auto grid = spice::mc_grid(plan.axes, plan.dists, plan.mc);
  EXPECT_EQ(plan.point_count(), 24u);
  EXPECT_EQ(plan.point_count(), grid.size());

  // Three 1e6-value axes times 1e7 draws: the count saturates, no grid.
  ASSERT_TRUE(plan_sweep(mc_request({"a=0:1:1000000", "b=0:1:1000000", "c=0:1:1000000"},
                                    "0", 10'000'000),
                         plan, error))
      << error;
  EXPECT_EQ(plan.point_count(), std::numeric_limits<std::size_t>::max());
}

TEST(SweepPlan, RunFoldsEveryExecutedPointIntoStats) {
  SweepPlan plan;
  std::string error;
  ASSERT_TRUE(plan_sweep(mc_request({}, "007", 4), plan, error)) << error;
  const SweepRun full = run_sweep(plan, 1, {}, {});
  ASSERT_EQ(full.grid.size(), 4u);
  ASSERT_EQ(full.outcomes.size(), 4u);
  EXPECT_EQ(full.stats.seed_text, "7");
  EXPECT_EQ(full.stats.total_points, 4);
  EXPECT_EQ(full.stats.mc, 4);
  EXPECT_EQ(full.stats.measures.size(), 1u);
  EXPECT_EQ(full.stats.shard_count, 0);
  EXPECT_EQ(full.stats.points.size(), 4u);
  for (const auto& outcome : full.outcomes) EXPECT_TRUE(outcome.ok) << outcome.error;

  spice::SweepOptions shard;
  shard.shard_index = 2;
  shard.shard_count = 2;
  const SweepRun half = run_sweep(plan, 2, shard, {});
  EXPECT_EQ(half.stats.shard_index, 2);
  EXPECT_EQ(half.stats.shard_count, 2);
  EXPECT_EQ(half.stats.total_points, 4);
  ASSERT_EQ(half.stats.points.size(), 2u);  // odd indices only
  EXPECT_EQ(half.stats.points.begin()->first, 1);
  EXPECT_TRUE(half.outcomes[0].skipped);
  EXPECT_EQ(half.outcomes[1].metrics, full.outcomes[1].metrics);
}

}  // namespace
}  // namespace usys::api
