// Golden-diagnostic tests for the static circuit analyzer (spice/lint.hpp):
// one defect netlist per rule under tests/spice/lint/, plus the clean-corpus
// guarantee that every shipped example (and the HDL stdlib in all three
// executors) lints without findings, and the engine-preflight contract
// (errors reject with FailureKind::lint_rejected, warnings never block).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/netlist_ext.hpp"
#include "spice/engine.hpp"
#include "spice/lint.hpp"
#include "spice/netlist.hpp"

using namespace usys;
using namespace usys::spice;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string corpus(const char* name) {
  return read_file(std::string(USYS_SOURCE_DIR "/tests/spice/lint/") + name);
}

/// Replaces every `{key}` in `text` (sweep-style placeholders in examples).
std::string substitute(std::string text, const std::string& key,
                       const std::string& value) {
  const std::string pat = "{" + key + "}";
  for (std::size_t p = text.find(pat); p != std::string::npos;
       p = text.find(pat, p)) {
    text.replace(p, pat.size(), value);
    p += value.size();
  }
  return text;
}

LintReport lint_text(const std::string& text, const LintOptions& opts = {}) {
  auto parser = core::make_full_parser();
  Netlist net = parser.parse(text);
  return lint_circuit(*net.circuit, opts);
}

bool has_rule(const LintReport& rep, const std::string& rule,
              LintSeverity sev) {
  return std::any_of(rep.diags.begin(), rep.diags.end(), [&](const LintDiag& d) {
    return d.rule == rule && d.severity == sev;
  });
}

int count_rule(const LintReport& rep, const std::string& rule) {
  return static_cast<int>(
      std::count_if(rep.diags.begin(), rep.diags.end(),
                    [&](const LintDiag& d) { return d.rule == rule; }));
}

TEST(Lint, FloatingIslandWarns) {
  const auto rep = lint_text(corpus("float_node.cir"));
  EXPECT_TRUE(has_rule(rep, "float-node", LintSeverity::warning));
  EXPECT_EQ(rep.error_count(), 0);
  // The finding names the island members and carries the card's line.
  const auto it = std::find_if(rep.diags.begin(), rep.diags.end(),
                               [](const LintDiag& d) { return d.rule == "float-node"; });
  ASSERT_NE(it, rep.diags.end());
  EXPECT_NE(it->message.find("isl1"), std::string::npos);
  EXPECT_EQ(it->line, 5);
}

TEST(Lint, VoltageLoopIsError) {
  const auto rep = lint_text(corpus("vloop.cir"));
  EXPECT_TRUE(has_rule(rep, "vloop", LintSeverity::error));
  // The probed-pattern matching independently confirms the all-analyses
  // singularity (two identical branch rows).
  EXPECT_TRUE(has_rule(rep, "struct-singular", LintSeverity::warning));
}

TEST(Lint, InductorDcLoopWarns) {
  const auto rep = lint_text(corpus("vloop_dc.cir"));
  EXPECT_TRUE(has_rule(rep, "vloop-dc", LintSeverity::warning));
  EXPECT_EQ(rep.error_count(), 0) << rep.to_text();
}

TEST(Lint, IsourceCutsetWarns) {
  const auto rep = lint_text(corpus("isource_cutset.cir"));
  EXPECT_TRUE(has_rule(rep, "isource-cutset", LintSeverity::warning));
  EXPECT_EQ(rep.error_count(), 0);
}

TEST(Lint, StructuralSingularityAtDcWarns) {
  // Two effort-port HDL transducers in parallel: the DC Jf pattern has no
  // perfect matching. The warning is a true positive — this netlist's .op
  // genuinely fails with singular-matrix after the whole rescue ladder.
  const auto rep = lint_text(corpus("struct_singular.cir"));
  EXPECT_TRUE(has_rule(rep, "struct-singular", LintSeverity::warning));
  EXPECT_EQ(rep.error_count(), 0) << rep.to_text();
}

TEST(Lint, ParameterSanity) {
  const auto rep = lint_text(corpus("bad_param.cir"));
  EXPECT_TRUE(has_rule(rep, "param-zero", LintSeverity::error));
  EXPECT_TRUE(has_rule(rep, "param-magnitude", LintSeverity::warning));
}

TEST(Lint, UnconnectedArrayCells) {
  const auto rep = lint_text(corpus("array_unconnected.cir"));
  EXPECT_EQ(count_rule(rep, "array-unconnected"), 3);  // one per isolated cell
  EXPECT_EQ(rep.error_count(), 0);
}

TEST(Lint, OptionsDisableAnalyses) {
  LintOptions opts;
  opts.connectivity = false;
  opts.matching = false;
  const auto rep = lint_text(corpus("float_node.cir"), opts);
  EXPECT_EQ(count_rule(rep, "float-node"), 0);
}

TEST(Lint, TextAndJsonRendering) {
  const auto rep = lint_text(corpus("vloop.cir"));
  const std::string text = rep.to_text();
  EXPECT_NE(text.find("error[vloop]"), std::string::npos);
  EXPECT_NE(text.find("device 'V2'"), std::string::npos);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"vloop\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);

  // Strings that need escaping: the JSON must parse and decode unchanged.
  LintReport odd = rep;
  odd.diags.push_back({LintSeverity::warning, "odd", "dev \"q\" \\ x",
                       3, "line\nbreak\rcr\x01" "ctl"});
  const auto doc = json_parse(odd.to_json());
  ASSERT_TRUE(doc.has_value()) << odd.to_json();
  const JsonValue* findings = doc->find("findings");
  ASSERT_TRUE(findings != nullptr && findings->items().size() == odd.diags.size());
  const JsonValue& f = findings->items().back();
  EXPECT_EQ(f.get_string("entity"), odd.diags.back().entity);
  EXPECT_EQ(f.get_string("message"), odd.diags.back().message);
  EXPECT_EQ(f.get_number("line"), 3.0);
  EXPECT_EQ(doc->get_number("warnings"), rep.warning_count() + 1.0);
}

// --- engine preflight --------------------------------------------------------

TEST(LintPreflight, ErrorsRejectWithStructuredFailure) {
  auto parser = core::make_full_parser();
  Netlist net = parser.parse(corpus("bad_param.cir"));
  AnalysisEngine engine(*net.circuit);
  EXPECT_TRUE(engine.preflight().has_errors());
  const OpResult dc = engine.run_op();
  EXPECT_FALSE(dc.converged);
  EXPECT_EQ(dc.failure.kind, FailureKind::lint_rejected);
  EXPECT_NE(dc.failure.detail.find("param-zero"), std::string::npos);
  // The verdict propagates through the dependent analyses too.
  TranOptions tran;
  tran.tstop = 1e-6;
  tran.dt_init = 1e-7;
  const TranResult tr = engine.run_tran(tran);
  EXPECT_FALSE(tr.ok);
  EXPECT_EQ(tr.failure.kind, FailureKind::lint_rejected);
}

TEST(LintPreflight, WarningsNeverBlockAnalysis) {
  // Floating island: a warning-severity defect gmin rescues numerically.
  auto parser = core::make_full_parser();
  Netlist net = parser.parse(corpus("float_node.cir"));
  AnalysisEngine engine(*net.circuit);
  EXPECT_FALSE(engine.preflight().has_errors());
  const OpResult dc = engine.run_op();
  EXPECT_TRUE(dc.converged);
}

// --- clean corpus ------------------------------------------------------------

TEST(LintCleanCorpus, ShippedExamplesAreClean) {
  std::string text = read_file(USYS_SOURCE_DIR "/examples/transducer_array.cir");
  text = substitute(text, "gap", "2e-6");
  text = substitute(text, "vdrive", "1");
  const auto rep = lint_text(text);
  EXPECT_TRUE(rep.clean()) << rep.to_text();
}

TEST(LintCleanCorpus, HdlStdlibCleanInAllExecModes) {
  // Every stdlib transducer, one well-formed instance each, in all three
  // executors: the compiled bytecode must verify clean AND the circuit-level
  // lint must find nothing. (The executors share the compiled program, but
  // mode selection exercises the distinct bind paths.)
  const char* kNetlist =
      "* hdl stdlib clean corpus\n"
      "V1 vin 0 1\n"
      "R1 vin p 1k\n"
      "X1 p 0 m 0 HDLTRANSV a=1e-8 d=2e-6 er=1\n"
      "XM m MASS m=1e-9\n"
      "XS m 0 SPRING k=1\n"
      "XD m 0 DAMPER alpha=1e-6\n"
      ".op\n"
      ".end\n";
  for (const char* mode : {"ast", "bytecode", "codegen"}) {
    auto parser = core::make_full_parser();
    parser.set_option("hdl", mode);
    Netlist net = parser.parse(kNetlist);
    const auto rep = lint_circuit(*net.circuit);
    EXPECT_TRUE(rep.clean()) << "mode=" << mode << "\n" << rep.to_text();
  }
}

TEST(LintCleanCorpus, RuleCatalogIsClosed) {
  // Every rule id the analyzer can emit appears in kAllLintRules (the table
  // docs/diagnostics.md is cross-checked against); spot-check both levels.
  std::vector<std::string> rules;
  for (const char* const* r = kAllLintRules; *r != nullptr; ++r) rules.emplace_back(*r);
  for (const char* expect : {"float-node", "vloop", "struct-singular",
                             "param-zero", "array-unconnected",
                             "hdl-operand-bounds", "hdl-dead-code"}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), expect), rules.end())
        << expect << " missing from kAllLintRules";
  }
}

}  // namespace
