// One operating point per job: an .op card's converged DC solve is handed to
// the job's later .ac/.tran cards (api::Session::run), and DC Newton never
// asks devices for Jq. Pins that an .op+.ac or .op+.tran job reports byte for
// byte what separate .op-only, .ac-only and .tran-only jobs report (Listing 1
// HDL transducer, its native twin, a sparse transducer array), that a
// transient in between ends the reuse, and — through a counting device —
// which stamp passes a job runs on both matrix backends, the transient's
// charge harvest included.
#include <gtest/gtest.h>

#include <climits>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"

namespace usys::api {
namespace {

using spice::AnalysisCard;

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_same_bits(const DVector& a, const DVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i])) << "unknown " << i;
}

void expect_same_bits(const ZVector& a, const ZVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].real()), bits(b[i].real())) << "unknown " << i;
    EXPECT_EQ(bits(a[i].imag()), bits(b[i].imag())) << "unknown " << i;
  }
}

void expect_same(const spice::OpResult& a, const spice::OpResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.newton_iterations, b.newton_iterations);
  EXPECT_EQ(a.used_sparse, b.used_sparse);
  EXPECT_EQ(a.symbolic_factorizations, b.symbolic_factorizations);
  EXPECT_EQ(a.used_gmin_stepping, b.used_gmin_stepping);
  EXPECT_EQ(a.used_source_stepping, b.used_source_stepping);
  expect_same_bits(a.x, b.x);
}

/// `b_dc_symbolic`: pivot searches of an operating point `b` solved itself
/// where `a` was handed one; they count toward `b` only.
void expect_same(const spice::AcResult& a, const spice::AcResult& b, int b_dc_symbolic = 0) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.used_sparse, b.used_sparse);
  EXPECT_EQ(a.symbolic_factorizations + b_dc_symbolic, b.symbolic_factorizations);
  ASSERT_EQ(a.freq.size(), b.freq.size());
  for (std::size_t k = 0; k < a.freq.size(); ++k) {
    SCOPED_TRACE(a.freq[k]);
    EXPECT_EQ(bits(a.freq[k]), bits(b.freq[k]));
    expect_same_bits(a.x[k], b.x[k]);
  }
}

/// `b_dc_symbolic` as for the AcResult overload.
void expect_same(const spice::TranResult& a, const spice::TranResult& b,
                 int b_dc_symbolic = 0) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.total_newton_iters, b.total_newton_iters);
  EXPECT_EQ(a.rejected_steps, b.rejected_steps);
  EXPECT_EQ(a.used_gmin_stepping, b.used_gmin_stepping);
  EXPECT_EQ(a.used_source_stepping, b.used_source_stepping);
  EXPECT_EQ(a.used_sparse, b.used_sparse);
  EXPECT_EQ(a.symbolic_factorizations + b_dc_symbolic, b.symbolic_factorizations);
  ASSERT_EQ(a.time.size(), b.time.size());
  for (std::size_t k = 0; k < a.time.size(); ++k) {
    SCOPED_TRACE(a.time[k]);
    EXPECT_EQ(bits(a.time[k]), bits(b.time[k]));
    expect_same_bits(a.x[k], b.x[k]);
  }
}

// The Listing 1 HDL transducer, its hand-written twin, and a 6-element
// transducer array (15 unknowns: the sparse backend).
const char kHdl[] = R"(* Listing 1 transducer
V1 drive 0 PULSE(0 10 0 1m 1m 10m) AC 1
XT drive 0 vel 0 HDLTRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
)";

const char kNative[] = R"(* native twin
V1 drive 0 PULSE(0 10 0 1m 1m 10m) AC 1
XT drive 0 vel 0 ETRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
)";

const char kArray[] = R"(* transducer array behind a bus resistor
V1 in 0 PULSE(0 2 0 1u 1u 1) AC 1
Rbus in drive 10
Xarr drive 0 TRANSARRAY n=6 a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0.1
)";

/// One fresh Session running `body` + `cards`, all of them succeeding.
JobResult run_fresh(const std::string& body, const std::string& cards) {
  Session session(body + cards + ".end\n");
  JobResult r = session.run();
  EXPECT_TRUE(r.ok) << r.error;
  return r;
}

class JobPointTest : public ::testing::TestWithParam<const char*> {};

TEST_P(JobPointTest, OpThenAcMatchesSeparateJobs) {
  const std::string body = GetParam();
  const std::string ac = ".ac dec 5 10 10k\n";
  const JobResult both = run_fresh(body, ".op\n" + ac);
  const JobResult op_only = run_fresh(body, ".op\n");
  const JobResult ac_only = run_fresh(body, ac);
  ASSERT_EQ(both.analyses.size(), 2u);
  ASSERT_EQ(op_only.analyses.size(), 1u);
  ASSERT_EQ(ac_only.analyses.size(), 1u);
  expect_same(both.analyses[0].op, op_only.analyses[0].op);
  expect_same(both.analyses[1].ac, ac_only.analyses[0].ac,
              op_only.analyses[0].op.symbolic_factorizations);
  // The same work reports the same count, whichever card solved the point.
  EXPECT_EQ(both.symbolic_factorizations, ac_only.symbolic_factorizations);
}

TEST_P(JobPointTest, OpThenTranMatchesSeparateJobs) {
  const std::string body = GetParam();
  const std::string tran = ".tran 20u 2m\n";
  const JobResult both = run_fresh(body, ".op\n" + tran);
  const JobResult op_only = run_fresh(body, ".op\n");
  const JobResult tran_only = run_fresh(body, tran);
  ASSERT_EQ(both.analyses.size(), 2u);
  expect_same(both.analyses[0].op, op_only.analyses[0].op);
  expect_same(both.analyses[1].tran, tran_only.analyses[0].tran,
              op_only.analyses[0].op.symbolic_factorizations);
}

TEST(JobPoint, TranOnlyJobCountsItsOwnOperatingPoint) {
  // A .tran card that solves its own point reports that solve's pivot
  // search: the same work reports the same total whichever card did it.
  const std::string tran = ".tran 20u 2m\n";
  const JobResult both = run_fresh(kArray, ".op\n" + tran);
  const JobResult tran_only = run_fresh(kArray, tran);
  EXPECT_TRUE(tran_only.analyses[0].tran.used_sparse);
  EXPECT_EQ(both.symbolic_factorizations, 2);
  EXPECT_EQ(tran_only.symbolic_factorizations, both.symbolic_factorizations);
}

TEST_P(JobPointTest, WarmRerunOfOpAcJobIsUnchanged) {
  Session session(std::string(GetParam()) + ".op\n.ac dec 5 10 10k\n.end\n");
  const JobResult cold = session.run();
  const JobResult warm = session.run();
  ASSERT_TRUE(cold.ok && warm.ok);
  expect_same_bits(cold.analyses[0].op.x, warm.analyses[0].op.x);
  expect_same(cold.analyses[1].ac, warm.analyses[1].ac);
}

INSTANTIATE_TEST_SUITE_P(Circuits, JobPointTest, ::testing::Values(kHdl, kNative, kArray),
                         [](const auto& info) {
                           return std::string(info.index == 0   ? "HdlListing1"
                                              : info.index == 1 ? "NativeTwin"
                                                                : "SparseArray");
                         });

TEST(JobPoint, ArrayCircuitTakesTheSparseBackend) {
  const JobResult r = run_fresh(kArray, ".op\n");
  ASSERT_EQ(r.analyses.size(), 1u);
  EXPECT_GE(r.analyses[0].op.x.size(), 12u);
  EXPECT_TRUE(r.analyses[0].op.used_sparse);
}

// --- stamp passes, counted ---------------------------------------------------

/// A shunt conductance + capacitance on one node (a bare conductance when
/// `charged` is false) that counts the stamp passes it sees, split by what
/// the pass asks for.
class PassCounter : public spice::Device {
 public:
  PassCounter(std::string name, int node, bool charged = true)
      : Device(std::move(name)), node_(node), charged_(charged) {}
  void bind(spice::Binder&) override {}
  void stamp_footprint(std::vector<int>& out) const override { out.push_back(node_); }
  bool stores_charge() const noexcept override { return charged_; }
  void evaluate(spice::EvalCtx& ctx) override {
    const double v = ctx.v(node_);
    ctx.f_add(node_, 1e-3 * v);
    ctx.jf_add(node_, node_, 1e-3);
    if (charged_) {
      ctx.q_add(node_, 1e-9 * v);
      ctx.jq_add(node_, node_, 1e-9);
    }
    if (!ctx.wants_jacobian()) {
      ++value_only;
    } else if (ctx.mode == spice::AnalysisMode::transient) {
      ++(ctx.wants_jq() ? tran_jq : tran_no_jq);
    } else {
      ++(ctx.wants_jq() ? dc_jq : dc_no_jq);
    }
  }

  int dc_no_jq = 0;  ///< DC Newton iterations
  int dc_jq = 0;     ///< AC linearizations
  int tran_jq = 0;
  int tran_no_jq = 0;
  int value_only = 0;

  /// Every pass that carried a Jacobian: the Newton iterations and the AC
  /// linearizations.
  int jacobian_passes() const noexcept { return dc_no_jq + dc_jq + tran_jq + tran_no_jq; }

 private:
  int node_;
  bool charged_;
};

/// "prefix<i>" without the const char* + temporary-string operator+ overload
/// (GCC 12's -Wrestrict false-positives on that exact pattern at -O3).
std::string tag(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// Source -> 1k -> out, with the counter on `out`; `pad` extra RC sections
/// hang off `out` so a test can push the unknown count up.
struct Probe {
  std::unique_ptr<spice::Circuit> circuit = std::make_unique<spice::Circuit>();
  PassCounter* counter = nullptr;

  explicit Probe(int pad = 0) {
    spice::Circuit& c = *circuit;
    const int in = c.add_node("in", Nature::electrical);
    const int out = c.add_node("out", Nature::electrical);
    c.add<spice::VSource>("V1", in, spice::Circuit::kGround,
                          std::make_unique<spice::DcWave>(1.0), Nature::electrical,
                          /*ac_mag=*/1.0);
    c.add<spice::Resistor>("R1", in, out, 1e3);
    int prev = out;
    for (int i = 0; i < pad; ++i) {
      const int node = c.add_node(tag("p", i), Nature::electrical);
      c.add<spice::Resistor>(tag("RP", i), prev, node, 1e3);
      c.add<spice::Capacitor>(tag("CP", i), node, spice::Circuit::kGround, 1e-9);
      prev = node;
    }
    counter = &c.add<PassCounter>("XC", out);
  }
};

TEST(JobPoint, DcNewtonNeverAsksForJqOnEitherBackend) {
  for (const int threshold : {0, INT_MAX}) {
    SCOPED_TRACE(threshold == 0 ? "sparse" : "dense");
    Probe probe;
    PassCounter& n = *probe.counter;
    spice::AnalysisEngine engine(*probe.circuit);
    spice::DcOptions dc;
    dc.newton.sparse_threshold = threshold;

    const spice::OpResult op = engine.run_op(dc);
    ASSERT_TRUE(op.converged);
    EXPECT_EQ(op.used_sparse, threshold == 0);
    EXPECT_EQ(n.dc_no_jq, op.newton_iterations);
    EXPECT_EQ(n.dc_jq, 0);

    // The AC card solves its own point here (no job to hand one over), then
    // linearizes once with Jq.
    spice::AcOptions ac;
    ac.points = 3;
    ac.dc = dc;
    ASSERT_TRUE(engine.run_ac(ac).ok);
    EXPECT_EQ(n.dc_no_jq, 2 * op.newton_iterations);
    EXPECT_EQ(n.dc_jq, 1);

    // The transient's initial point is DC Newton too; its steps need Jq.
    spice::TranOptions tran;
    tran.tstop = 1e-5;
    tran.newton.sparse_threshold = threshold;
    tran.dc = dc;
    const spice::TranResult tr = engine.run_tran(tran);
    ASSERT_TRUE(tr.ok) << tr.error;
    EXPECT_EQ(n.dc_no_jq, 3 * op.newton_iterations);
    EXPECT_EQ(n.dc_jq, 1);
    EXPECT_GT(n.tran_jq, 0);
    EXPECT_EQ(n.tran_no_jq, 0);
  }
}

TEST(JobPoint, TransientHarvestsChargeOnlyFromDevicesThatStoreIt) {
  for (const int threshold : {0, INT_MAX}) {
    SCOPED_TRACE(threshold == 0 ? "sparse" : "dense");
    Probe probe;
    PassCounter& charged = *probe.counter;
    PassCounter& chargeless = probe.circuit->add<PassCounter>(
        "XG", probe.circuit->node("out"), /*charged=*/false);
    spice::AnalysisEngine engine(*probe.circuit);
    spice::TranOptions tran;
    tran.tstop = 1e-5;
    tran.newton.sparse_threshold = threshold;
    tran.dc.newton.sparse_threshold = threshold;
    const spice::TranResult tr = engine.run_tran(tran);
    ASSERT_TRUE(tr.ok) << tr.error;
    const int accepted = static_cast<int>(tr.time.size()) - 1;  // time[0] is the DC point
    ASSERT_GT(accepted, 0);
    // Newton iterations (the operating point's included) evaluate both.
    EXPECT_EQ(chargeless.jacobian_passes(), tr.total_newton_iters);
    EXPECT_EQ(charged.jacobian_passes(), tr.total_newton_iters);
    // The charge harvest: once at the DC point and once per accepted step,
    // and never for the device that stores no charge.
    EXPECT_EQ(chargeless.value_only, 0);
    EXPECT_EQ(charged.value_only, accepted + 1);
  }
}

TEST(JobPoint, SparseDcPassStillChecksTheFootprintOfDiscardedJq) {
  // A device whose Jq stamp strays outside its footprint must still be
  // named when the DC pass discards Jq.
  class StrayJq : public spice::Device {
   public:
    StrayJq(int a, int b) : Device("XSTRAY"), a_(a), b_(b) {}
    void bind(spice::Binder&) override {}
    void stamp_footprint(std::vector<int>& out) const override { out.push_back(a_); }
    bool stores_charge() const noexcept override { return false; }
    void evaluate(spice::EvalCtx& ctx) override {
      ctx.f_add(a_, 1e-3 * ctx.v(a_));
      ctx.jf_add(a_, a_, 1e-3);
      ctx.jq_add(a_, b_, 1e-9);
    }

   private:
    int a_, b_;
  };
  Probe probe;
  spice::Circuit& c = *probe.circuit;
  c.add<StrayJq>(c.node("out"), c.node("in"));
  spice::AnalysisEngine engine(c);
  spice::DcOptions dc;
  dc.newton.sparse_threshold = 0;
  try {
    engine.run_op(dc);
    FAIL() << "the stray stamp went unnoticed";
  } catch (const spice::CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("XSTRAY"), std::string::npos) << e.what();
  }
}

/// Runs `cards` as one job on a Session over `probe`, recording the DC
/// counters after each card.
std::vector<std::pair<int, int>> dc_counts_per_card(Probe& probe,
                                                    const std::vector<AnalysisCard>& cards,
                                                    JobResult* result = nullptr) {
  Session session(*probe.circuit);
  JobRequest req;
  req.analyses = cards;
  std::vector<std::pair<int, int>> counts;
  const JobResult r = session.run(req, [&](std::size_t, const AnalysisOutcome& oc) {
    EXPECT_TRUE(oc.ok) << oc.error();
    counts.emplace_back(probe.counter->dc_no_jq, probe.counter->dc_jq);
  });
  EXPECT_TRUE(r.ok) << r.error;
  if (result != nullptr) *result = r;
  return counts;
}

AnalysisCard card(AnalysisCard::Kind kind) {
  AnalysisCard c;
  c.kind = kind;
  c.tran.tstop = 1e-5;
  c.ac.points = 3;
  return c;
}

TEST(JobPoint, OpThenAcSolvesTheOperatingPointOnce) {
  for (const int pad : {0, 12}) {
    SCOPED_TRACE(pad);
    Probe probe(pad);
    JobResult r;
    const auto counts = dc_counts_per_card(
        probe, {card(AnalysisCard::Kind::op), card(AnalysisCard::Kind::ac)}, &r);
    ASSERT_EQ(counts.size(), 2u);
    const int iters = r.analyses[0].op.newton_iterations;
    EXPECT_EQ(r.analyses[0].op.used_sparse, pad > 0);
    EXPECT_EQ(counts[0], std::make_pair(iters, 0));
    // One Jacobian pass more, and the only one with Jq: the linearization.
    EXPECT_EQ(counts[1], std::make_pair(iters, 1));
  }
}

TEST(JobPoint, TransientInBetweenEndsTheReuse) {
  Probe probe;
  JobResult r;
  const auto counts = dc_counts_per_card(
      probe,
      {card(AnalysisCard::Kind::op), card(AnalysisCard::Kind::tran),
       card(AnalysisCard::Kind::ac)},
      &r);
  ASSERT_EQ(counts.size(), 3u);
  const int iters = r.analyses[0].op.newton_iterations;
  EXPECT_EQ(counts[0].first, iters);
  EXPECT_EQ(counts[1].first, iters);      // .tran started from the .op point
  EXPECT_EQ(counts[2].first, 2 * iters);  // .ac solved its own point again
  EXPECT_EQ(counts[2].second, 1);
  EXPECT_EQ(r.analyses[1].tran.total_newton_iters,
            iters + (probe.counter->tran_jq + probe.counter->tran_no_jq));
}

TEST(JobPoint, DifferentDcOptionsSolveAgain) {
  Probe probe;
  AnalysisCard ac = card(AnalysisCard::Kind::ac);
  ac.ac.dc.newton.reltol = 1e-9;  // not the .op card's options
  JobResult r;
  const auto counts = dc_counts_per_card(probe, {card(AnalysisCard::Kind::op), ac}, &r);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GT(counts[1].first, counts[0].first);
}

}  // namespace
}  // namespace usys::api
