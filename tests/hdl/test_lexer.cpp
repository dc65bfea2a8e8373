#include <gtest/gtest.h>

#include <string>

#include "hdl/lexer.hpp"

namespace usys::hdl {
namespace {

TEST(Lexer, OperatorsAndPunctuation) {
  const auto toks = lex("( ) [ ] , ; : . := %= => + - * / ^");
  const Tok expected[] = {Tok::lparen,  Tok::rparen, Tok::lbracket, Tok::rbracket,
                          Tok::comma,   Tok::semicolon, Tok::colon, Tok::dot,
                          Tok::assign,  Tok::contribute, Tok::arrow, Tok::plus,
                          Tok::minus,   Tok::star,   Tok::slash,    Tok::caret,
                          Tok::end_of_file};
  ASSERT_EQ(toks.size(), std::size(expected));
  for (std::size_t i = 0; i < toks.size(); ++i) EXPECT_EQ(toks[i].kind, expected[i]) << i;
}

TEST(Lexer, NumbersWithExponents) {
  const auto toks = lex("8.8542e-12 2.0 42 .5");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_DOUBLE_EQ(toks[0].value, 8.8542e-12);
  EXPECT_DOUBLE_EQ(toks[1].value, 2.0);
  EXPECT_DOUBLE_EQ(toks[2].value, 42.0);
  EXPECT_DOUBLE_EQ(toks[3].value, 0.5);
}

TEST(Lexer, HexAndOutOfRangeLiteralsThrowWithPosition) {
  try {
    lex("x := 0x10;");
    FAIL() << "0x10 lexed";
  } catch (const LexError& e) {
    EXPECT_NE(std::string(e.what()).find("at 1:6"), std::string::npos) << e.what();
  }
  try {
    lex("a := 1;\n  x := 1e999;");
    FAIL() << "1e999 lexed";
  } catch (const LexError& e) {
    EXPECT_NE(std::string(e.what()).find("at 2:8"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("1e999"), std::string::npos) << e.what();
  }
  EXPECT_THROW(lex("y := 0X1p-3;"), LexError);
  EXPECT_THROW(lex("y := 1e-999;"), LexError);
  EXPECT_DOUBLE_EQ(lex("y := 1.e3;")[2].value, 1000.0);
}

TEST(Lexer, IdentifiersKeepCase) {
  const auto toks = lex("ENTITY eletran V_x");
  EXPECT_EQ(toks[0].text, "ENTITY");
  EXPECT_EQ(toks[1].text, "eletran");
  EXPECT_EQ(toks[2].text, "V_x");
  EXPECT_TRUE(is_keyword(toks[0], "entity"));
}

TEST(Lexer, CommentsSkipped) {
  const auto toks = lex("a -- this is a comment := %=\nb");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, MinusVsComment) {
  const auto toks = lex("a - b");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].kind, Tok::minus);
}

TEST(Lexer, LineNumbersTracked) {
  const auto toks = lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
}

TEST(Lexer, StrayCharactersThrow) {
  EXPECT_THROW(lex("a ? b"), LexError);
  EXPECT_THROW(lex("a % b"), LexError);
  EXPECT_THROW(lex("a = b"), LexError);
}

TEST(Lexer, Listing1Tokenizes) {
  const char* listing = R"(
ENTITY eletran IS
 GENERIC (A, d, er : analog);
 PIN (a, b : electrical; c, d : mechanical1);
END ENTITY eletran;
)";
  const auto toks = lex(listing);
  EXPECT_GT(toks.size(), 20u);
  EXPECT_EQ(toks.back().kind, Tok::end_of_file);
}

}  // namespace
}  // namespace usys::hdl
