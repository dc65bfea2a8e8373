#include "hdl/lexer.hpp"

#include <cctype>
#include <charconv>

#include "common/strings.hpp"

namespace usys::hdl {

bool is_keyword(const Token& t, const char* kw) {
  return t.kind == Tok::identifier && iequals(t.text, kw);
}

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();

  auto push = [&](Tok kind, std::string text, double value = 0.0) {
    out.push_back({kind, std::move(text), value, line, col});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      ++col;
      continue;
    }
    // '--' comment to end of line.
    if (c == '-' && i + 1 < n && src[i + 1] == '-') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) != 0 ||
                       src[j] == '_'))
        ++j;
      push(Tok::identifier, src.substr(i, j - i));
      col += static_cast<int>(j - i);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      if (c == '0' && i + 1 < n && (src[i + 1] == 'x' || src[i + 1] == 'X'))
        throw LexError(line, col, "hex literals are not supported");
      double v = 0.0;
      const auto [end, ec] = std::from_chars(src.data() + i, src.data() + n, v);
      const std::size_t j = static_cast<std::size_t>(end - src.data());
      if (ec == std::errc::result_out_of_range)
        throw LexError(line, col, "number '" + src.substr(i, j - i) + "' is out of range");
      push(Tok::number, src.substr(i, j - i), v);
      col += static_cast<int>(j - i);
      i = j;
      continue;
    }
    switch (c) {
      case ':':
        if (i + 1 < n && src[i + 1] == '=') {
          push(Tok::assign, ":=");
          i += 2;
          col += 2;
        } else {
          push(Tok::colon, ":");
          ++i;
          ++col;
        }
        continue;
      case '%':
        if (i + 1 < n && src[i + 1] == '=') {
          push(Tok::contribute, "%=");
          i += 2;
          col += 2;
          continue;
        }
        throw LexError(line, col, "stray '%'");
      case '=':
        if (i + 1 < n && src[i + 1] == '>') {
          push(Tok::arrow, "=>");
          i += 2;
          col += 2;
          continue;
        }
        throw LexError(line, col, "stray '=' (did you mean ':=' or '=>'?)");
      case '(': push(Tok::lparen, "("); break;
      case ')': push(Tok::rparen, ")"); break;
      case '[': push(Tok::lbracket, "["); break;
      case ']': push(Tok::rbracket, "]"); break;
      case ',': push(Tok::comma, ","); break;
      case ';': push(Tok::semicolon, ";"); break;
      case '.': push(Tok::dot, "."); break;
      case '+': push(Tok::plus, "+"); break;
      case '-': push(Tok::minus, "-"); break;
      case '*': push(Tok::star, "*"); break;
      case '/': push(Tok::slash, "/"); break;
      case '^': push(Tok::caret, "^"); break;
      default:
        throw LexError(line, col, std::string("unexpected character '") + c + "'");
    }
    ++i;
    ++col;
  }
  push(Tok::end_of_file, "<eof>");
  return out;
}

}  // namespace usys::hdl
