// Parser: Listing 1 verbatim, the stdlib models, and diagnostics.
#include <gtest/gtest.h>

#include "hdl/parser.hpp"
#include "hdl/stdlib.hpp"

namespace usys::hdl {
namespace {

TEST(Parser, Listing1Verbatim) {
  // The paper's Listing 1 with its original structure (including the
  // generic/pin name collision on 'd', resolved by syntactic position).
  const DesignUnit unit = parse(stdlib::paper_listing1());
  const Entity* e = unit.find_entity("eletran");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->generics.size(), 3u);
  EXPECT_EQ(e->generics[0].name, "A");
  EXPECT_EQ(e->generics[1].name, "d");
  ASSERT_EQ(e->pins.size(), 4u);
  EXPECT_EQ(e->pins[0].nature, Nature::electrical);
  EXPECT_EQ(e->pins[2].nature, Nature::mechanical_translation);
  EXPECT_EQ(e->pins[3].name, "d");

  const Architecture* a = unit.find_architecture_of("eletran");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "a");
  ASSERT_EQ(a->variables.size(), 4u);  // e0, x, V, S
  EXPECT_FALSE(a->variables[0].is_state);
  EXPECT_TRUE(a->variables[2].is_state);
  ASSERT_EQ(a->blocks.size(), 2u);
  EXPECT_TRUE(a->blocks[0].has_domain("init"));
  EXPECT_TRUE(a->blocks[1].has_domain("ac"));
  EXPECT_TRUE(a->blocks[1].has_domain("transient"));
  // init: 1 stmt; main: 5 stmts (V, S, x, two contributions).
  EXPECT_EQ(a->blocks[0].stmts.size(), 1u);
  EXPECT_EQ(a->blocks[1].stmts.size(), 5u);
  EXPECT_EQ(a->blocks[1].stmts[4].kind, StmtKind::contribution);
  EXPECT_EQ(a->blocks[1].stmts[4].field, "f");
}

TEST(Parser, AllStdlibModelsParse) {
  const DesignUnit unit =
      parse(stdlib::paper_listing1() + stdlib::transverse_energy() +
            stdlib::parallel_electrostatic() + stdlib::electromagnetic() +
            stdlib::electrodynamic());
  EXPECT_NE(unit.find_entity("eletran"), nullptr);
  EXPECT_NE(unit.find_entity("etransverse"), nullptr);
  EXPECT_NE(unit.find_entity("eparallel"), nullptr);
  EXPECT_NE(unit.find_entity("emagnetic"), nullptr);
  EXPECT_NE(unit.find_entity("edynamic"), nullptr);
}

TEST(Parser, GenericDefaults) {
  const auto unit = parse(R"(
ENTITY m IS
  GENERIC (a : analog := 2.5; b, c : analog := -1.0);
  PIN (p, q : electrical);
END ENTITY m;
)");
  const Entity* e = unit.find_entity("m");
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->generics.size(), 3u);
  EXPECT_TRUE(e->generics[0].has_default);
  EXPECT_DOUBLE_EQ(e->generics[0].default_value, 2.5);
  EXPECT_DOUBLE_EQ(e->generics[2].default_value, -1.0);
}

TEST(Parser, ExpressionPrecedence) {
  const auto unit = parse(R"(
ENTITY m IS
  GENERIC (a : analog);
  PIN (p, q : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
  VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      y := 1.0 + 2.0*a^2.0 - -3.0;
      [p, q].i %= y;
  END RELATION;
END ARCHITECTURE x;
)");
  const Architecture* a = unit.find_architecture_of("m");
  ASSERT_NE(a, nullptr);
  const Stmt& s = a->blocks[0].stmts[0];
  // (1.0 + (2.0*(a^2.0))) - (-3.0)
  EXPECT_EQ(s.expr->kind, ExprKind::binary);
  EXPECT_EQ(s.expr->name, "-");
  EXPECT_EQ(s.expr->args[1]->kind, ExprKind::unary_neg);
}

TEST(Parser, ErrorsCarryLine) {
  try {
    parse("ENTITY m IS\n  BOGUS\nEND ENTITY m;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, EntityNameMismatchRejected) {
  EXPECT_THROW(parse("ENTITY m IS PIN (a, b : electrical); END ENTITY other;"),
               ParseError);
}

TEST(Parser, BadContributionFieldRejected) {
  EXPECT_THROW(parse(R"(
ENTITY m IS
  PIN (p, q : electrical);
END ENTITY m;
ARCHITECTURE x OF m IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [p, q].bogus %= 1.0;
  END RELATION;
END ARCHITECTURE x;
)"),
               ParseError);
}

TEST(Parser, UnknownNatureRejected) {
  EXPECT_THROW(parse("ENTITY m IS PIN (a, b : telepathic); END ENTITY m;"), ParseError);
}

TEST(Parser, CaseInsensitiveKeywords) {
  const auto unit = parse(R"(
entity m is
  pin (a, b : ELECTRICAL);
end entity m;
architecture y of m is
begin
  relation
    procedural for TRANSIENT =>
      [a, b].i %= 0.0;
  end relation;
end architecture y;
)");
  EXPECT_NE(unit.find_entity("M"), nullptr);  // lookup also case-insensitive
}

}  // namespace
}  // namespace usys::hdl
