// Elaboration: generic binding, init blocks, resolution diagnostics,
// effort pairs, and state-site allocation.
#include <gtest/gtest.h>

#include "hdl/elaborate.hpp"
#include "hdl/parser.hpp"
#include "hdl/stdlib.hpp"

namespace usys::hdl {
namespace {

ElaboratedModel elab_listing1() {
  return elaborate(parse(stdlib::paper_listing1()), "eletran",
                   {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}});
}

TEST(Elaborate, Listing1Binds) {
  const ElaboratedModel m = elab_listing1();
  EXPECT_EQ(m.entity_name, "eletran");
  EXPECT_EQ(m.generic_count, 3);
  ASSERT_EQ(m.pins.size(), 4u);
  EXPECT_EQ(m.integ_site_count, 1);  // x := integ(S)
  EXPECT_EQ(m.ddt_site_count, 1);    // ddt(V)
  EXPECT_TRUE(m.effort_pairs.empty());
  // init block consumed: e0 baked into the frame.
  const int e0_slot = 3;  // generics A,d,er then variables e0,x
  EXPECT_EQ(m.slot_names[static_cast<std::size_t>(e0_slot)], "e0");
  EXPECT_DOUBLE_EQ(m.init_frame[static_cast<std::size_t>(e0_slot)], 8.8542e-12);
}

TEST(Elaborate, SetGenericRerunsInitLikeAFreshElaboration) {
  const char* src = R"(
ENTITY cap IS
  GENERIC (A, d : analog);
  PIN (a, b : electrical);
END ENTITY cap;
ARCHITECTURE x OF cap IS
  VARIABLE e0, c0 : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
      c0 := e0*A/d;
      d := 2.0*d;
    PROCEDURAL FOR dc =>
      [a, b].i %= c0*[a, b].v;
  END RELATION;
END ARCHITECTURE x;
)";
  ElaboratedModel m = elaborate(parse(src), "cap", {{"A", 1e-4}, {"d", 1e-4}});
  const ElaboratedModel fresh = elaborate(parse(src), "cap", {{"A", 1e-4}, {"d", 3e-4}});
  ASSERT_EQ(m.generic_index("D"), 1);  // case-insensitive, like the card keys
  EXPECT_EQ(m.generic_index("c0"), -1);  // variables are not generics
  m.set_generic(m.generic_index("d"), 3e-4);
  // The binding is kept apart from the frame slot the init block rewrote.
  EXPECT_EQ(m.generic_values[1], 3e-4);
  EXPECT_EQ(m.init_frame, fresh.init_frame);
}

TEST(Elaborate, GenericDefaultsApply) {
  const auto unit = parse(R"(
ENTITY m IS
  GENERIC (g : analog := 7.0);
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= g;
  END RELATION;
END ARCHITECTURE x;
)");
  const ElaboratedModel m = elaborate(std::move(const_cast<DesignUnit&>(unit)), "m", {});
  EXPECT_DOUBLE_EQ(m.init_frame[0], 7.0);
}

TEST(Elaborate, MissingGenericThrows) {
  EXPECT_THROW(
      elaborate(parse(stdlib::paper_listing1()), "eletran", {{"A", 1e-4}, {"d", 1e-4}}),
      ElabError);
}

TEST(Elaborate, GenericBindingCaseInsensitive) {
  EXPECT_NO_THROW(elaborate(parse(stdlib::paper_listing1()), "eletran",
                            {{"a", 1e-4}, {"D", 1e-4}, {"ER", 1.0}}));
}

TEST(Elaborate, UnknownEntityThrows) {
  EXPECT_THROW(elaborate(parse(stdlib::paper_listing1()), "nope", {}), ElabError);
}

TEST(Elaborate, UnknownIdentifierDiagnosed) {
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= undefined_name;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {}), ElabError);
}

TEST(Elaborate, UnknownPinDiagnosed) {
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, z].i %= 1.0;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {}), ElabError);
}

TEST(Elaborate, FlowFieldNatureChecked) {
  // '.f %=' on electrical pins must be rejected.
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].f %= 1.0;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {}), ElabError);
}

TEST(Elaborate, CurrentReadRequiresEffortPair) {
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
  VARIABLE I : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      I := [a, b].i;
      [a, b].i %= I;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {}), ElabError);
}

TEST(Elaborate, EffortPairEnablesCurrentRead) {
  const ElaboratedModel m =
      elaborate(parse(stdlib::electromagnetic()), "emagnetic",
                {{"A", 1e-4}, {"d", 1e-3}, {"N", 100.0}});
  ASSERT_EQ(m.effort_pairs.size(), 1u);
  EXPECT_EQ(m.ddt_site_count, 1);
  EXPECT_EQ(m.integ_site_count, 1);
}

TEST(Elaborate, VariableShadowingGenericRejected) {
  auto unit = parse(R"(
ENTITY m IS
  GENERIC (k : analog);
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
  VARIABLE k : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= k;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {{"k", 1.0}}), ElabError);
}

TEST(Elaborate, InitBlockRejectsPortReads) {
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
  VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      y := [a, b].v;
    PROCEDURAL FOR transient =>
      [a, b].i %= y;
  END RELATION;
END ARCHITECTURE x;
)");
  EXPECT_THROW(elaborate(std::move(unit), "m", {}), ElabError);
}

TEST(Elaborate, UnknownFunctionNamesEntityAndLine) {
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= frobnicate(1.0);
  END RELATION;
END ARCHITECTURE x;
)");
  try {
    elaborate(std::move(unit), "m", {});
    FAIL() << "unknown function must be rejected at elaboration";
  } catch (const ElabError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entity 'm'"), std::string::npos) << what;
    EXPECT_NE(what.find("frobnicate"), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
}

TEST(Elaborate, UnknownBinaryOperatorRejected) {
  // The parser only produces the five arithmetic operators, so a foreign
  // operator has to be injected into the AST directly — exactly the path
  // that used to fall through to a silent Dual(0.0) in the executors.
  auto unit = parse(R"(
ENTITY m IS
  PIN (a, b : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [a, b].i %= 1.0 + 2.0;
  END RELATION;
END ARCHITECTURE x;
)");
  unit.architectures.at(0).blocks.at(0).stmts.at(0).expr->name = "%";
  try {
    elaborate(std::move(unit), "m", {});
    FAIL() << "unknown binary operator must be rejected at elaboration";
  } catch (const ElabError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown binary operator"), std::string::npos) << what;
    EXPECT_NE(what.find("entity 'm'"), std::string::npos) << what;
  }
}

TEST(Elaborate, ElabErrorIsACircuitError) {
  // Elaboration failures must be catchable at the circuit boundary.
  EXPECT_THROW(elaborate(parse(stdlib::paper_listing1()), "nope", {}),
               spice::CircuitError);
}

TEST(Elaborate, ResolvedIndicesStoredInStatements) {
  const ElaboratedModel m = elab_listing1();
  for (const auto& b : m.blocks) {
    for (const auto& s : b.stmts) {
      if (s.kind == StmtKind::assign) {
        EXPECT_GE(s.slot, 0);
        EXPECT_LT(s.slot, static_cast<int>(m.slot_names.size()));
      } else if (s.kind == StmtKind::contribution) {
        EXPECT_GE(s.p1, 0);
        EXPECT_GE(s.p2, 0);
        EXPECT_LT(s.p1, static_cast<int>(m.pins.size()));
        EXPECT_LT(s.p2, static_cast<int>(m.pins.size()));
        // Source pin names survive for diagnostics.
        EXPECT_FALSE(s.pin1.empty());
      }
    }
  }
}

TEST(Elaborate, AllStdlibModelsElaborate) {
  EXPECT_NO_THROW(elaborate(parse(stdlib::transverse_energy()), "etransverse",
                            {{"A", 1e-4}, {"d", 1.5e-4}, {"er", 1.0}}));
  EXPECT_NO_THROW(elaborate(parse(stdlib::parallel_electrostatic()), "eparallel",
                            {{"h", 1e-3}, {"l", 2e-3}, {"d", 1e-5}, {"er", 1.0}}));
  EXPECT_NO_THROW(elaborate(parse(stdlib::electrodynamic()), "edynamic",
                            {{"N", 100.0}, {"r", 5e-3}, {"B", 1.0}}));
}

}  // namespace
}  // namespace usys::hdl
