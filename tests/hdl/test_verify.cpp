// Static bytecode verifier tests (hdl/verify.hpp): corrupt programs are
// hand-built — the compiler never emits them and the netlist layer cannot
// express them, which is exactly why the verifier exists as the backstop
// between compile() and the unchecked executors.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "hdl/verify.hpp"
#include "spice/circuit.hpp"

using namespace usys;
using namespace usys::hdl;

namespace {

/// Minimal well-formed program over 2 circuit unknowns: dst = x[0] * k,
/// stamped as a flow into row 0. All three streams identical (stamps are
/// compiled into commit_code too; the VM skips them at runtime).
BytecodeProgram make_valid() {
  BytecodeProgram p;
  p.entity_name = "test_entity";
  p.n_regs = 3;
  p.n_frame = 0;
  p.constants = {2.5};
  p.n_seeds = 2;
  p.seed_unknowns = {0, 1};
  std::vector<Insn> code{
      {Op::read_across, 0, 0, 0, -1, -1},  // r0 = x[0] (seed 0), other pin ground
      {Op::kconst, 1, 0, -1, -1, -1},      // r1 = 2.5
      {Op::mul, 2, 0, 1, -1, -1},          // r2 = r0 * r1
      {Op::stamp_flow, 2, 0, 0, -1, -1},   // +row 0 (seed 0)
  };
  p.dc_code = code;
  p.tran_code = code;
  p.commit_code = code;
  return p;
}

bool has_rule(const VerifyReport& rep, const std::string& rule,
              VerifySeverity sev) {
  return std::any_of(rep.issues.begin(), rep.issues.end(), [&](const VerifyIssue& is) {
    return is.rule == rule && is.severity == sev;
  });
}

TEST(Verify, CleanProgramHasNoFindings) {
  const auto rep = verify_program(make_valid(), 2);
  EXPECT_TRUE(rep.issues.empty()) << rep.error_summary();
}

TEST(Verify, RegisterOutOfBounds) {
  auto p = make_valid();
  p.dc_code[2].a = 7;  // mul reads r7 of a 3-register file
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-operand-bounds", VerifySeverity::error));
}

TEST(Verify, ConstantIndexOutOfBounds) {
  auto p = make_valid();
  p.dc_code[1].a = 3;  // one constant exists
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-operand-bounds", VerifySeverity::error));
}

TEST(Verify, SeedTableOutsideUnknownVector) {
  auto p = make_valid();
  p.seed_unknowns = {0, 9};  // unknown 9 of a 2-unknown circuit
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-layout", VerifySeverity::error));
}

TEST(Verify, FrameInitSizeMismatch) {
  auto p = make_valid();
  p.n_frame = 1;  // frame_init stays empty
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-layout", VerifySeverity::error));
}

TEST(Verify, EffortPairRowOutOfBounds) {
  auto p = make_valid();
  p.pairs.push_back({0, -1, 5});  // branch row 5 of 2 unknowns
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-layout", VerifySeverity::error));
}

TEST(Verify, ReadBeforeWrite) {
  auto p = make_valid();
  // mul now reads r2 (its own yet-unwritten destination) instead of r0.
  p.dc_code[2].a = 2;
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-def-use", VerifySeverity::error));
}

TEST(Verify, DeadCodeWarns) {
  auto p = make_valid();
  p.dc_code.push_back({Op::neg, 1, 0, -1, -1, -1});  // r1 redefined, never used
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-dead-code", VerifySeverity::warning));
  EXPECT_EQ(rep.error_count(), 0);
}

TEST(Verify, StampsCountAsConsumersInCommitStream) {
  // Stamps sit in commit_code even though the VM skips them at runtime;
  // dead-code analysis must treat them as consumers or every commit stream
  // would light up.
  const auto rep = verify_program(make_valid(), 2);
  EXPECT_FALSE(has_rule(rep, "hdl-dead-code", VerifySeverity::warning));
}

TEST(Verify, ConstantStampWarns) {
  auto p = make_valid();
  // Stamp r1 (a kconst result): structurally zero gradient mask.
  p.dc_code[3] = {Op::stamp_flow, 1, 0, 0, -1, -1};
  // r2's mul is now dead as well — only assert the const-stamp finding.
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-const-stamp", VerifySeverity::warning));
}

TEST(Verify, DroppedGradientIsError) {
  auto p = make_valid();
  // Flow stamp row 1 is a live unknown but carries no AD seed slot:
  // capture-mode execution would index the seed block out of bounds.
  p.dc_code[3] = {Op::stamp_flow, 2, 1, -1, -1, -1};
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-grad-dropped", VerifySeverity::error));
}

TEST(Verify, BranchSignMustBeUnit) {
  auto p = make_valid();
  p.dc_code[0] = {Op::read_branch, 0, 0, 0, 3, -1};  // sign 3
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-operand-bounds", VerifySeverity::error));
}

TEST(Verify, IntegSiteMismatch) {
  auto p = make_valid();
  p.integ_sites = 1;
  // tran integrates site 0; commit never does -> state goes stale.
  p.tran_code.insert(p.tran_code.begin() + 3, {Op::integ, 1, 0, 0, -1, -1});
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-site-mismatch", VerifySeverity::error));
}

TEST(Verify, DoubleCommitIsError) {
  auto p = make_valid();
  p.ddt_sites = 1;
  const Insn d{Op::ddt, 1, 0, 0, -1, -1};
  p.tran_code.insert(p.tran_code.begin() + 3, d);
  p.commit_code.insert(p.commit_code.begin() + 3, d);
  p.commit_code.insert(p.commit_code.begin() + 3, d);  // committed twice
  const auto rep = verify_program(p, 2);
  EXPECT_TRUE(has_rule(rep, "hdl-site-mismatch", VerifySeverity::error));
}

// --- integration with the device bind path -----------------------------------

TEST(Verify, StdlibModelsVerifyCleanAtBind) {
  // Every stdlib transducer's compiled program must pass with zero findings
  // (not just zero errors) — the models are the reference corpus.
  struct Case {
    std::string source;
    const char* entity;
    std::map<std::string, double> generics;
  };
  const Case cases[] = {
      {stdlib::paper_listing1(), "eletran", {{"A", 1e-8}, {"d", 2e-6}, {"er", 1.0}}},
      {stdlib::transverse_energy(), "etransverse", {{"A", 1e-8}, {"d", 2e-6}, {"er", 1.0}}},
      {stdlib::parallel_electrostatic(), "eparallel",
       {{"h", 1e-6}, {"l", 1e-5}, {"d", 2e-6}, {"er", 1.0}}},
      {stdlib::electromagnetic(), "emagnetic", {{"A", 1e-8}, {"d", 2e-6}, {"N", 100.0}}},
      {stdlib::electrodynamic(), "edynamic", {{"N", 100.0}, {"r", 0.01}, {"B", 0.5}}},
  };
  for (const auto& c : cases) {
    spice::Circuit ckt;
    const int e = ckt.add_node("e", Nature::electrical);
    const int m = ckt.add_node("m", Nature::mechanical_translation);
    ckt.add_device(instantiate("X1", c.source, c.entity, c.generics,
                               {e, spice::Circuit::kGround, m, spice::Circuit::kGround}));
    ckt.bind_all();
    const auto* dev = dynamic_cast<const HdlDevice*>(ckt.devices()[0].get());
    ASSERT_NE(dev, nullptr);
    EXPECT_TRUE(dev->verify_report().issues.empty())
        << c.entity << ": " << dev->verify_report().error_summary();
  }
}

}  // namespace
