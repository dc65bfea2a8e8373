#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

namespace usys {

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::boolean;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::number;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::string;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.kind_ = Kind::array;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.kind_ = Kind::object;
  return v;
}

JsonValue JsonValue::make_object(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v = make_object();
  v.members_ = std::move(members);
  auto& m = v.members_;
  if (m.size() < 2) return v;
  // Duplicate keys, in O(n log n): sort the positions by key (stable, so
  // each key's occurrences stay in input order), move the last value of a
  // run into its first position, and drop the rest.
  std::vector<std::size_t> order(m.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return m[a].first < m[b].first; });
  std::vector<bool> drop;
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() && m[order[j]].first == m[order[i]].first) ++j;
    if (j - i > 1) {
      if (drop.empty()) drop.assign(m.size(), false);
      m[order[i]].second = std::move(m[order[j - 1]].second);
      for (std::size_t k = i + 1; k < j; ++k) drop[order[k]] = true;
    }
    i = j;
  }
  if (drop.empty()) return v;
  std::size_t out = 0;
  for (std::size_t k = 0; k < m.size(); ++k) {
    if (drop[k]) continue;
    if (out != k) m[out] = std::move(m[k]);  // never self-move: it empties the key
    ++out;
  }
  m.resize(out);
  return v;
}

bool JsonValue::as_bool(bool fallback) const noexcept {
  return kind_ == Kind::boolean ? bool_ : fallback;
}

double JsonValue::as_number(double fallback) const noexcept {
  return kind_ == Kind::number ? num_ : fallback;
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::get_string(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->str_ : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->num_ : fallback;
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::array) items_.push_back(std::move(v));
}

void JsonValue::set(std::string key, JsonValue v) {
  if (kind_ != Kind::object) return;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void json_append_escaped(std::string& out, std::string_view v) {
  // Names and labels rarely need escaping: append those in one piece.
  const bool plain = std::none_of(v.begin(), v.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  out += '"';
  if (plain) {
    out.append(v);
    out += '"';
    return;
  }
  for (const char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

void append_g17(std::string& out, double v) {
  // The longest output is "-2.2250738585072014e-308": 24 characters.
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void json_append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  append_g17(out, v);
}

void json_append_integer(std::string& out, long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void json_append_exact(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "null";
  } else if (std::isinf(v)) {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
  } else {
    json_append_double(out, v);
  }
}

bool json_read_exact(const JsonValue& v, double& out) {
  if (v.is_number()) {
    out = v.as_number();
  } else if (v.is_null()) {
    out = std::numeric_limits<double>::quiet_NaN();
  } else if (v.is_string() && (v.as_string() == "inf" || v.as_string() == "-inf")) {
    const double inf = std::numeric_limits<double>::infinity();
    out = v.as_string() == "inf" ? inf : -inf;
  } else {
    return false;
  }
  return true;
}

bool json_read_integer(const JsonValue& v, long lo, long hi, long& out) {
  const double d = v.as_number(std::numeric_limits<double>::quiet_NaN());
  // NaN fails both comparisons; the range test precedes the cast, which
  // is undefined for doubles outside long's range.
  if (!(d >= static_cast<double>(lo) && d <= static_cast<double>(hi)) ||
      d != std::floor(d))
    return false;
  out = static_cast<long>(d);
  return true;
}

namespace {

void dump_value(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::null:
      out += "null";
      break;
    case JsonValue::Kind::boolean:
      out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::number:
      json_append_double(out, v.as_number());
      break;
    case JsonValue::Kind::string:
      json_append_escaped(out, v.as_string());
      break;
    case JsonValue::Kind::array: {
      out += '[';
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::object: {
      out += '{';
      bool first = true;
      for (const auto& [k, member] : v.members()) {
        if (!first) out += ',';
        first = false;
        json_append_escaped(out, k);
        out += ':';
        dump_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  out.reserve(64);
  dump_value(*this, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent parser over a borrowed buffer. Depth-limited: the wire
/// schema nests 3-4 levels, so 64 is generous while keeping a hostile
/// "[[[[..." request from exhausting the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text.c_str()), end_(s_ + text.size()) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    return s_ == end_;  // trailing garbage is a syntax error
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (s_ < end_ && (*s_ == ' ' || *s_ == '\t' || *s_ == '\n' || *s_ == '\r')) ++s_;
  }

  bool literal(const char* word, std::size_t len) {
    if (static_cast<std::size_t>(end_ - s_) < len || std::strncmp(s_, word, len) != 0)
      return false;
    s_ += len;
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth || s_ >= end_) return false;
    switch (*s_) {
      case 'n': return literal("null", 4) ? (out = JsonValue::make_null(), true) : false;
      case 't': return literal("true", 4) ? (out = JsonValue::make_bool(true), true) : false;
      case 'f': return literal("false", 5) ? (out = JsonValue::make_bool(false), true) : false;
      case '"': return string_value(out);
      case '[': return array_value(out, depth);
      case '{': return object_value(out, depth);
      default: return number_value(out);
    }
  }

  bool string_value(JsonValue& out) {
    std::string s;
    if (!string_raw(s)) return false;
    out = JsonValue::make_string(std::move(s));
    return true;
  }

  bool string_raw(std::string& s) {
    if (s_ >= end_ || *s_ != '"') return false;
    ++s_;
    while (s_ < end_) {
      const char c = *s_++;
      if (c == '"') return true;
      if (c == '\\') {
        if (s_ >= end_) return false;
        const char e = *s_++;
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (end_ - s_ < 4) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = *s_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            json_append_utf8(s, code);
            break;
          }
          default: return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      } else {
        s += c;
      }
    }
    return false;  // unterminated string
  }

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// Advances `p` over one or more digits; false when there is none.
  bool digits(const char*& p) const {
    if (p == end_ || !is_digit(*p)) return false;
    while (p != end_ && is_digit(*p)) ++p;
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted by
  /// from_chars. Scanning first keeps out what from_chars alone would take
  /// (a leading '.', "inf"/"nan") or stop short of ("0x10" as 0, "01").
  bool number_value(JsonValue& out) {
    const char* p = s_;
    if (p != end_ && *p == '-') ++p;
    if (p != end_ && *p == '0') {
      ++p;
    } else if (!digits(p)) {
      return false;
    }
    if (p != end_ && *p == '.' && !digits(++p)) return false;
    if (p != end_ && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p != end_ && (*p == '+' || *p == '-')) ++p;
      if (!digits(p)) return false;
    }
    double v = 0.0;
    const auto r = std::from_chars(s_, p, v);
    // errc::result_out_of_range: a literal beyond double's range.
    if (r.ec != std::errc() || r.ptr != p) return false;
    s_ = p;
    out = JsonValue::make_number(v);
    return true;
  }

  bool array_value(JsonValue& out, int depth) {
    ++s_;  // '['
    out = JsonValue::make_array();
    skip_ws();
    if (s_ < end_ && *s_ == ']') {
      ++s_;
      return true;
    }
    while (true) {
      JsonValue item;
      skip_ws();
      if (!value(item, depth + 1)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (s_ >= end_) return false;
      if (*s_ == ',') {
        ++s_;
        continue;
      }
      if (*s_ == ']') {
        ++s_;
        return true;
      }
      return false;
    }
  }

  bool object_value(JsonValue& out, int depth) {
    ++s_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (s_ < end_ && *s_ == '}') {
      ++s_;
      out = JsonValue::make_object();
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string_raw(key)) return false;
      skip_ws();
      if (s_ >= end_ || *s_ != ':') return false;
      ++s_;
      skip_ws();
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (s_ >= end_) return false;
      if (*s_ == ',') {
        ++s_;
        continue;
      }
      if (*s_ == '}') {
        ++s_;
        out = JsonValue::make_object(std::move(members));
        return true;
      }
      return false;
    }
  }

  const char* s_;
  const char* end_;
};

}  // namespace

std::optional<JsonValue> json_parse(const std::string& text) {
  Parser p(text);
  JsonValue v;
  if (!p.parse(v)) return std::nullopt;
  return v;
}

}  // namespace usys
