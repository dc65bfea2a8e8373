// Netlist front-end: tokenization, devices, natures, analyses, diagnostics,
// and the transducer extension cards registered by usys::core.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/netlist_ext.hpp"
#include "spice/analysis.hpp"
#include "spice/engine.hpp"
#include "spice/devices_passive.hpp"
#include "spice/netlist.hpp"

namespace usys::spice {
namespace {

TEST(Netlist, DividerEndToEnd) {
  NetlistParser parser;
  const auto net = parser.parse(R"(* divider
V1 in 0 10
R1 in mid 1k
R2 mid 0 1k
.op
.end
)");
  ASSERT_EQ(net.analyses.size(), 1u);
  EXPECT_EQ(net.analyses[0].kind, AnalysisCard::Kind::op);
  const OpResult op = api::operating_point(*net.circuit);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.at(net.circuit->node("mid")), 5.0, 1e-7);  // gmin loading
}

TEST(Netlist, TitleLine) {
  NetlistParser parser;
  const auto net = parser.parse("* my title\nR1 a 0 1k\n");
  EXPECT_EQ(net.title, " my title");
}

TEST(Netlist, EngineeringSuffixes) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
V1 a 0 1
R1 a b 4.7k
R2 b 0 2meg
C1 b 0 10u
L1 b 0 1m
)");
  auto* r1 = dynamic_cast<Resistor*>(net.circuit->find_device("R1"));
  ASSERT_NE(r1, nullptr);
  EXPECT_DOUBLE_EQ(r1->resistance(), 4.7e3);
  auto* c1 = dynamic_cast<Capacitor*>(net.circuit->find_device("C1"));
  ASSERT_NE(c1, nullptr);
  EXPECT_DOUBLE_EQ(c1->capacitance(), 1e-5);
}

TEST(Netlist, PulseWaveformAndTranCard) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
V1 in 0 PULSE(0 5 1m 0.1m 0.1m 2m)
R1 in 0 1k
.tran 0.01m 6m
)");
  ASSERT_EQ(net.analyses.size(), 1u);
  EXPECT_EQ(net.analyses[0].kind, AnalysisCard::Kind::tran);
  EXPECT_NEAR(net.analyses[0].tran.tstop, 6e-3, 1e-12);
  const TranResult res = api::transient(*net.circuit, net.analyses[0].tran);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.sample(2e-3, net.circuit->node("in")), 5.0, 1e-6);
}

TEST(Netlist, AcCardAndSource) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
V1 in 0 0 AC 1
R1 in out 1k
C1 out 0 1u
.ac dec 10 1 100k
)");
  ASSERT_EQ(net.analyses.size(), 1u);
  const AcResult res = api::ac_sweep(*net.circuit, net.analyses[0].ac);
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.freq.size(), 10u);
}

TEST(Netlist, MechanicalCardsAndNatureDeclaration) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
.node vel mechanical1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
Xf vel FORCE f=1m
.op
)");
  const OpResult op = api::operating_point(*net.circuit);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.at(net.circuit->node("vel")), 0.0, 1e-9);
}

TEST(Netlist, TransducerCardBuildsFig3System) {
  auto parser = core::make_full_parser();
  const auto net = parser.parse(R"(* Fig. 3 system
V1 drive 0 PWL(0 0 5m 10 0.1 10)
XT drive 0 vel 0 ETRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
Xi disp vel INTEG
.tran 0.1m 60m
)");
  const TranResult res = api::transient(*net.circuit, net.analyses[0].tran);
  ASSERT_TRUE(res.ok) << res.error;
  // Static deflection at 10 V ~ -9.84 nm (attraction closes the gap).
  const double x_final = res.sample(60e-3, net.circuit->node("disp"));
  EXPECT_NEAR(x_final, -9.84e-9, 0.5e-9);
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  NetlistParser parser;
  try {
    parser.parse("R1 a 0 1k\nbogus card here\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Netlist, HexAndNonFiniteValuesThrow) {
  NetlistParser parser;
  EXPECT_THROW(parser.parse("R1 a 0 0x10\n"), NetlistError);
  EXPECT_THROW(parser.parse("C1 a 0 0x1p-3\n"), NetlistError);
  EXPECT_THROW(parser.parse("R1 a 0 inf\n"), NetlistError);
  EXPECT_THROW(parser.parse("R1 a 0 1e999\n"), NetlistError);
  EXPECT_NO_THROW(parser.parse("R1 a 0 +5\nR2 a 0 .5k\nR3 a 0 5.\n"));
}

TEST(Netlist, UnknownDirectiveThrows) {
  NetlistParser parser;
  EXPECT_THROW(parser.parse(".nonsense 1 2\n"), NetlistError);
}

TEST(Netlist, MissingXTypeThrows) {
  NetlistParser parser;
  EXPECT_THROW(parser.parse("X1 a b NOTATYPE k=1\n"), NetlistError);
}

TEST(Netlist, MissingParameterThrows) {
  NetlistParser parser;
  EXPECT_THROW(parser.parse(".node v mechanical1\nX1 v 0 SPRING\n"), NetlistError);
}

TEST(Netlist, OptionsCardSetsMethodAndSteps) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
V1 in 0 1
R1 in 0 1k
.options method=gear dtmax=1u reltol=1e-5
.tran 0.1u 10u
)");
  ASSERT_EQ(net.analyses.size(), 1u);
  EXPECT_EQ(net.analyses[0].tran.method, IntegMethod::gear2);
  EXPECT_NEAR(net.analyses[0].tran.dt_max, 1e-6, 1e-15);
  EXPECT_NEAR(net.analyses[0].tran.newton.reltol, 1e-5, 1e-12);
  const TranResult res = api::transient(*net.circuit, net.analyses[0].tran);
  EXPECT_TRUE(res.ok);
}

TEST(Netlist, OptionsCardRejectsUnknownKeysAndMethods) {
  NetlistParser parser;
  EXPECT_THROW(parser.parse(".options bogus=1\n"), NetlistError);
  EXPECT_THROW(parser.parse(".options method=rk4\n"), NetlistError);
  EXPECT_THROW(parser.parse(".options method\n"), NetlistError);
}

TEST(Netlist, DiodeCard) {
  NetlistParser parser;
  const auto net = parser.parse(R"(
V1 in 0 5
R1 in d 1k
D1 d 0
.op
)");
  const OpResult op = api::operating_point(*net.circuit);
  ASSERT_TRUE(op.converged);
  EXPECT_GT(op.at(net.circuit->node("d")), 0.5);
  EXPECT_LT(op.at(net.circuit->node("d")), 0.8);
}

TEST(Netlist, SemicolonComments) {
  NetlistParser parser;
  const auto net = parser.parse("V1 a 0 1 ; the source\nR1 a 0 1k\n");
  EXPECT_NE(net.circuit->find_device("R1"), nullptr);
}

TEST(Netlist, ArrayCardExpandsWithIndexPlaceholders) {
  NetlistParser parser;
  const auto net = parser.parse(R"(* resistor string via .array
V1 n0 0 10
.array 4 R{i} n{i} n{i+1} 1k
R4 n4 0 1k
.op
)");
  for (int i = 0; i < 4; ++i) {
    std::string name("R");
    name += std::to_string(i);
    EXPECT_NE(net.circuit->find_device(name), nullptr) << i;
  }
  EXPECT_EQ(net.circuit->find_device("R5"), nullptr);
  // 5 equal resistors in series: n4 sits at 1/5 of the drive.
  const OpResult op = api::operating_point(*net.circuit);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.at(net.circuit->node("n4")), 2.0, 1e-6);
}

TEST(Netlist, ArrayCardOffsetsAndErrors) {
  NetlistParser parser;
  // {i-N} offsets work too.
  const auto net = parser.parse(".array 3 C{i+10} a{i-0} 0 1n\n");
  EXPECT_NE(net.circuit->find_device("C10"), nullptr);
  EXPECT_NE(net.circuit->find_device("C12"), nullptr);

  EXPECT_THROW(parser.parse(".array\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 2\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 0 R{i} a 0 1k\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 2.5 R{i} a 0 1k\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 2 .op\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 2 R{j} a 0 1k\n"), NetlistError);
  EXPECT_THROW(parser.parse(".array 2 R{i a 0 1k\n"), NetlistError);
  // Without {i} in the name the second instance is a duplicate device; the
  // construction conflict is reported as a NetlistError naming the line.
  EXPECT_THROW(parser.parse(".array 2 R1 a 0 1k\n"), NetlistError);
}

TEST(Netlist, TransArrayMacroBuildsSuspendedElements) {
  auto parser = core::make_full_parser();
  const auto net = parser.parse(R"(* 8-element MEMS array, one line
V1 drive 0 2
Xarr drive 0 TRANSARRAY n=8 a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0.1
.op
)");
  // Per element: transducer + mass + spring + damper, systematic names.
  EXPECT_NE(net.circuit->find_device("Xarr_0_xd"), nullptr);
  EXPECT_NE(net.circuit->find_device("Xarr_7_b"), nullptr);
  EXPECT_EQ(net.circuit->find_device("Xarr_8_xd"), nullptr);
  const int mech = net.circuit->node("Xarr_v3");
  EXPECT_EQ(net.circuit->node_nature(mech), Nature::mechanical_translation);

  const OpResult op = api::operating_point(*net.circuit);
  ASSERT_TRUE(op.converged);
  // Electrostatic pull holds every suspension in static equilibrium:
  // velocity unknowns sit at 0 in DC.
  EXPECT_NEAR(op.at(mech), 0.0, 1e-9);
}

TEST(Netlist, TransArrayRejectsBadParameters) {
  auto parser = core::make_full_parser();
  EXPECT_THROW(parser.parse("X1 a 0 TRANSARRAY n=0 a=1e-8 d=2e-6 m=1e-9 k=25\n"),
               NetlistError);
  EXPECT_THROW(parser.parse("X1 a 0 TRANSARRAY n=2.5 a=1e-8 d=2e-6 m=1e-9 k=25\n"),
               NetlistError);
  EXPECT_THROW(parser.parse("X1 a b c TRANSARRAY n=2 a=1e-8 d=2e-6 m=1e-9 k=25\n"),
               NetlistError);
  EXPECT_THROW(parser.parse("X1 a 0 TRANSARRAY n=2 d=2e-6 m=1e-9 k=25\n"),
               NetlistError);
  // |dspread| >= 1 would drive some element's gap to zero or negative.
  EXPECT_THROW(
      parser.parse("X1 a 0 TRANSARRAY n=4 a=1e-8 d=2e-6 m=1e-9 k=25 dspread=1.5\n"),
      NetlistError);
}

// --- sweep value placeholders -------------------------------------------------

const char kValueTemplate[] = R"(* value placeholders
V1 in 0 {vd} AC 1
I1 0 in {id}
R1 in out {r}
C1 out 0 {c}
L1 out tip {l}
R2 tip 0 1k
XT in 0 vel 0 HDLTRANSV a=1e-4 d={gap} er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k={k}
.op
.end
)";

SweepPoint value_point() {
  SweepPoint p;
  p.params = {{"vd", 5.0 / 3.0},  {"id", 1e-7 / 3.0}, {"r", 1000.0 / 7.0},
              {"c", 0.1e-6 / 3.0}, {"l", 1e-3 / 7.0},  {"gap", 0.15e-3 + 1e-9 / 3.0},
              {"k", 200.0 / 3.0}};
  return p;
}

TEST(NetlistPlaceholders, ValuePositionsResolveBitIdenticallyToSubstitution) {
  auto parser = core::make_full_parser();
  const SweepPoint p = value_point();
  const Netlist resolved = parser.parse(kValueTemplate, &p);
  ASSERT_FALSE(resolved.structural_placeholders);
  const std::vector<std::vector<std::string>> want = {
      {"V1", "dc", "vd"}, {"I1", "dc", "id"}, {"R1", "r", "r"}, {"C1", "c", "c"},
      {"L1", "l", "l"},   {"XT", "d", "gap"}, {"Xk", "k", "k"}};
  ASSERT_EQ(resolved.placeholders.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(resolved.placeholders[i].device, want[i][0]);
    EXPECT_EQ(resolved.placeholders[i].param, want[i][1]);
    EXPECT_EQ(resolved.placeholders[i].name, want[i][2]);
  }
  // The text path: print %.17g, parse back. Every site reads the same bits.
  const Netlist text = parser.parse(api::substitute_params(kValueTemplate, p));
  EXPECT_TRUE(text.placeholders.empty());
  for (const auto& site : resolved.placeholders) {
    double a = 0.0;
    double b = 0.0;
    ASSERT_TRUE(resolved.circuit->find_device(site.device)->get_param(site.param, a));
    ASSERT_TRUE(text.circuit->find_device(site.device)->get_param(site.param, b));
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << site.device;
    EXPECT_EQ(a, p.value(site.name)) << site.device;
  }
}

TEST(NetlistPlaceholders, OtherOccurrencesAreStructural) {
  auto parser = core::make_full_parser();
  SweepPoint p;
  p.params = {{"n", 2.0}};
  for (const char* text : {
           "R{n} a 0 1k\n",                                // device name
           "R1 a {n} 1k\n",                                // node name
           "R1 a 0 {n}k\n",                                // inside a value token
           "V1 a 0 PULSE(0 {n} 0 1u 1u 1m)\nR1 a 0 1k\n",  // waveform
           "V1 a 0 1 AC {n}\nR1 a 0 1k\n",                 // AC magnitude
           "E1 a 0 b 0 {n}\n",                             // controlled-source gain
           "R1 a 0 1k\n.tran 1u {n}\n",                    // analysis card
           ".array 2 R{i} a 0 {n}\n",                      // .array
           ".node {n} mechanical1\nR1 a 0 1k\n",           // .node
           "X1 a 0 HDLTRANSV a=1e-4 d=1e-4 er=1 mode={n}\n",  // string key
       }) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(parser.parse(text, &p).structural_placeholders);
  }
  // .param / .measure cards are inert to parse(): not structural.
  const Netlist net = parser.parse(".param n dist=normal(1,{n})\nR1 a 0 {n}\n", &p);
  EXPECT_FALSE(net.structural_placeholders);
  EXPECT_EQ(net.placeholders.size(), 1u);
}

TEST(NetlistPlaceholders, UnsweptNamesAndNonFiniteValuesFailAsText) {
  auto parser = core::make_full_parser();
  SweepPoint p;
  p.params = {{"r", std::numeric_limits<double>::infinity()}};
  // `{x}` is not swept: it stays literal text, exactly as substitution
  // leaves it.
  EXPECT_THROW(parser.parse("R1 a 0 {x}\n", &p), NetlistError);
  try {
    parser.parse("R1 a 0 {r}\n", &p);
    FAIL() << "an infinite value must fail like its printed text";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("got 'inf'"), std::string::npos) << e.what();
  }
}

// Integer fields read through parse_bounded: each bad card is a NetlistError
// naming its line. The 1e12 counts were undefined double -> int casts.
TEST(NetlistIntegers, BadCountsAreErrorsOnTheirLine) {
  auto parser = core::make_full_parser();
  const char* const kTa = " a=1e-8 d=2e-6 m=1e-9 k=25";
  const std::string cards[] = {
      ".ac dec 1e12 1 10",
      ".ac dec 2.5 1 10",
      ".ac dec 0 1 10",
      ".ac dec -3 1 10",
      ".ac dec 1k 1 10",
      ".ac dec 0x10 1 10",
      ".ac dec +5 1 10",
      ".ac lin 1000001 1 2",
      ".ac lin 2000000000 1 2",
      ".ac dec 99999999999999999999 1 10",
      ".array 1e12 R{i} a{i} 0 1k",
      ".array 2.5 R{i} a{i} 0 1k",
      ".array 10000001 R{i} a{i} 0 1k",
      ".array 1k R{i} a{i} 0 1k",
      ".array 2 R{i++5} a{i} 0 1k",
      ".array 2 R{i-+3} a{i} 0 1k",
      ".array 2 R{i+-3} a{i} 0 1k",
      ".array 2 R{i+0x5} a{i} 0 1k",
      ".array 2 R{i+1.0} a{i} 0 1k",
      ".array 2 R{i+99999999999999999999} a{i} 0 1k",
      ".array 2 V{i} a{i} 0 PULSE(0 {i+ 5} 0 1u 1u 1m)",
      std::string("X1 a 0 TRANSARRAY n=1e12") + kTa,
      std::string("X1 a 0 TRANSARRAY n=2.5") + kTa,
      std::string("X1 a 0 TRANSARRAY n=0") + kTa,
      std::string("X1 a 0 TRANSARRAY n=1k") + kTa,
      std::string("X1 a 0 TRANSARRAY n=10000001") + kTa,
      "X1 a 0 b 0 EMAG a=1e-4 d=1e-3 n=1e12",
      "X1 a 0 b 0 EMAG a=1e-4 d=1e-3 n=2.5",
      "X1 a 0 b 0 EMAG a=1e-4 d=1e-3 n=-4",
      "X1 a 0 b 0 EDYN n=1e12 r=0.01 b=1",
      "X1 a 0 b 0 EDYN n=0 r=0.01 b=1",
      "X1 a 0 b 0 EDYN n=3x r=0.01 b=1",
  };
  for (const std::string& card : cards) {
    SCOPED_TRACE(card);
    try {
      parser.parse("* integer fields\n" + card + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.line(), 2);
    }
  }
  // The forms the writers emit still parse.
  for (const std::string card : {".ac dec 5 10 10k", ".ac lin 1000000 1 2",
                                  ".array 3 C{i+10} a{i-0} 0 1n",
                                  ".array 10 R{i} a{i} 0 1k",
                                  "X1 a 0 TRANSARRAY n=6 a=1e-8 d=2e-6 m=1e-9 k=25",
                                  "X1 a 0 b 0 EMAG a=1e-4 d=1e-3 n=100",
                                  "X1 a 0 b 0 EDYN n=100 r=0.01 b=1"}) {
    SCOPED_TRACE(card);
    EXPECT_NO_THROW(parser.parse("* integer fields\n" + card + "\n"));
  }
}

TEST(NetlistIntegers, AcFrequencyCountIsCappedAtParse) {
  auto parser = core::make_full_parser();
  const std::string cap = std::to_string(kMaxAcPoints);
  for (const char* card : {".ac dec 10000000 1e-300 1e300", ".ac dec 1000000 1 1e3",
                           ".ac dec 1000 1e-300 1e300"}) {
    SCOPED_TRACE(card);
    try {
      parser.parse(card);
      ADD_FAILURE() << "accepted";
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find(cap), std::string::npos) << e.what();
    }
  }
  // 1e6 frequencies exactly: 9 decades at 111111 points, plus the endpoint.
  const Netlist net = parser.parse(".ac dec 111111 1 1e9\n");
  ASSERT_EQ(net.analyses.size(), 1u);
  EXPECT_EQ(net.analyses[0].ac.frequency_count(), 999'999 + 1.0);
  // An AcOptions built past the parser is refused before any allocation.
  Circuit ckt;
  AnalysisEngine engine(ckt);
  AcOptions huge;
  huge.sweep = SweepKind::linear;
  huge.points = 2'000'000'000;
  EXPECT_THROW(engine.run_ac(huge), std::invalid_argument);
}

}  // namespace
}  // namespace usys::spice
