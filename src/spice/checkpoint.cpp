#include "spice/checkpoint.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/json.hpp"

namespace usys::spice {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// %.17g: the shortest printf format guaranteed to round-trip any double
/// through decimal — the whole bit-identical-resume story hangs on this.
void append_double(std::string& s, double v) {
  if (std::isnan(v)) {
    s += "null";  // JSON has no NaN; load maps null back to NaN
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
  // Bare integers ("42") are valid JSON numbers; nothing more to do.
}

void append_json_string(std::string& s, const std::string& v) {
  s += '"';
  for (const char c : v) {
    switch (c) {
      case '"': s += "\\\""; break;
      case '\\': s += "\\\\"; break;
      case '\n': s += "\\n"; break;
      case '\r': s += "\\r"; break;
      case '\t': s += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          s += buf;
        } else {
          s += c;
        }
    }
  }
  s += '"';
}

void append_pairs(std::string& s, const std::vector<std::pair<std::string, double>>& pairs) {
  s += '[';
  bool first = true;
  for (const auto& [name, value] : pairs) {
    if (!first) s += ',';
    first = false;
    s += '[';
    append_json_string(s, name);
    s += ',';
    append_double(s, value);
    s += ']';
  }
  s += ']';
}

}  // namespace

std::string checkpoint_line(long index, const SweepPoint& point,
                            const SweepOutcome& outcome) {
  std::string s;
  s.reserve(128);
  s += "{\"i\":";
  s += std::to_string(index);
  s += ",\"ok\":";
  s += outcome.ok ? "true" : "false";
  s += ",\"attempts\":";
  s += std::to_string(outcome.attempts);
  s += ",\"params\":";
  append_pairs(s, point.params);
  s += ",\"metrics\":";
  append_pairs(s, outcome.metrics);
  s += ",\"error\":";
  append_json_string(s, outcome.error);
  if (!outcome.ok) {
    s += ",\"failure\":{\"kind\":";
    append_json_string(s, to_string(outcome.failure.kind));
    s += ",\"analysis\":";
    append_json_string(s, outcome.failure.analysis);
    s += ",\"time\":";
    append_double(s, outcome.failure.time);
    s += ",\"iteration\":";
    s += std::to_string(outcome.failure.iteration);
    s += ",\"rescue\":";
    s += std::to_string(outcome.failure.rescue_attempts);
    s += ",\"detail\":";
    append_json_string(s, outcome.failure.detail);
    s += '}';
  }
  s += '}';
  return s;
}

CheckpointWriter::CheckpointWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("checkpoint: cannot open '" + path + "' for append");
}

CheckpointWriter::~CheckpointWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointWriter::append(long index, const SweepPoint& point,
                              const SweepOutcome& outcome) {
  const std::string line = checkpoint_line(index, point, outcome) + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  // Flush per record: a kill between points loses nothing, a kill mid-write
  // loses only the torn line (which load_checkpoint skips).
  std::fflush(file_);
}

// ---------------------------------------------------------------------------
// Parser — a minimal recursive-descent JSON reader for the one record shape
// the writer produces. Full JSON values are accepted (objects, arrays,
// strings, numbers, bools, null); unknown keys are ignored so the format can
// grow fields without breaking old readers.
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  const char* p;
  const char* end;

  bool fail = false;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    fail = true;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) >= n && std::memcmp(p, lit, n) == 0) {
      p += n;
      return true;
    }
    fail = true;
    return false;
  }

  bool parse_string(std::string& out) {
    out.clear();
    if (!consume('"')) return false;
    while (p < end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p >= end) { fail = true; return false; }
        const char esc = *p++;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int k = 0; k < 4; ++k, ++p) {
              const int digit = p < end ? hex_digit(*p) : -1;
              if (digit < 0) { fail = true; return false; }
              code = code << 4 | static_cast<unsigned>(digit);
            }
            json_append_utf8(out, code);
            continue;
          }
          default: fail = true; return false;
        }
      }
      out += c;
    }
    return consume('"');
  }

  /// Number or null (null reads as NaN — the writer's encoding for it).
  bool parse_double(double& out) {
    skip_ws();
    if (p < end && *p == 'n') {
      if (!literal("null")) return false;
      out = std::numeric_limits<double>::quiet_NaN();
      return true;
    }
    char* conv_end = nullptr;
    out = std::strtod(p, &conv_end);
    if (conv_end == p) { fail = true; return false; }
    p = conv_end;
    return true;
  }

  bool parse_long(long& out) {
    double v = 0.0;
    if (!parse_double(v)) return false;
    out = static_cast<long>(v);
    return true;
  }

  bool parse_bool(bool& out) {
    skip_ws();
    if (p < end && *p == 't') { out = true; return literal("true"); }
    if (p < end && *p == 'f') { out = false; return literal("false"); }
    fail = true;
    return false;
  }

  bool parse_pairs(std::vector<std::pair<std::string, double>>& out) {
    out.clear();
    if (!consume('[')) return false;
    if (peek(']')) return consume(']');
    do {
      std::string name;
      double value = 0.0;
      if (!consume('[') || !parse_string(name) || !consume(',') ||
          !parse_double(value) || !consume(']'))
        return false;
      out.emplace_back(std::move(name), value);
    } while (peek(',') && consume(','));
    return consume(']');
  }

  static int hex_digit(char h) {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  }

  /// Skips any well-formed JSON value (forward compatibility: unknown keys).
  /// Nesting is capped like json_parse's, so a hostile or torn line of deep
  /// brackets is rejected instead of overflowing the stack.
  bool skip_value(int depth = 0) {
    static constexpr int kMaxDepth = 64;
    skip_ws();
    if (p >= end || depth > kMaxDepth) { fail = true; return false; }
    switch (*p) {
      case '{': {
        consume('{');
        if (peek('}')) return consume('}');
        do {
          std::string key;
          if (!parse_string(key) || !consume(':') || !skip_value(depth + 1)) return false;
        } while (peek(',') && consume(','));
        return consume('}');
      }
      case '[': {
        consume('[');
        if (peek(']')) return consume(']');
        do {
          if (!skip_value(depth + 1)) return false;
        } while (peek(',') && consume(','));
        return consume(']');
      }
      case '"': {
        std::string s;
        return parse_string(s);
      }
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: {
        double v;
        return parse_double(v);
      }
    }
  }

  bool parse_failure(FailureInfo& out) {
    if (!consume('{')) return false;
    if (peek('}')) return consume('}');
    do {
      std::string key;
      if (!parse_string(key) || !consume(':')) return false;
      if (key == "kind") {
        std::string name;
        if (!parse_string(name)) return false;
        if (!failure_kind_from_string(name, out.kind)) { fail = true; return false; }
      } else if (key == "analysis") {
        if (!parse_string(out.analysis)) return false;
      } else if (key == "time") {
        if (!parse_double(out.time)) return false;
      } else if (key == "iteration") {
        long v = 0;
        if (!parse_long(v)) return false;
        out.iteration = static_cast<int>(v);
      } else if (key == "rescue") {
        long v = 0;
        if (!parse_long(v)) return false;
        out.rescue_attempts = static_cast<int>(v);
      } else if (key == "detail") {
        if (!parse_string(out.detail)) return false;
      } else {
        if (!skip_value()) return false;
      }
    } while (peek(',') && consume(','));
    return consume('}');
  }
};

}  // namespace

bool parse_checkpoint_line(const std::string& line, CheckpointRecord& out) {
  out = CheckpointRecord{};
  Parser ps{line.data(), line.data() + line.size()};
  if (!ps.consume('{')) return false;
  bool have_index = false;
  if (!ps.peek('}')) {
    do {
      std::string key;
      if (!ps.parse_string(key) || !ps.consume(':')) return false;
      if (key == "i") {
        if (!ps.parse_long(out.index)) return false;
        have_index = true;
      } else if (key == "ok") {
        if (!ps.parse_bool(out.outcome.ok)) return false;
      } else if (key == "attempts") {
        long v = 0;
        if (!ps.parse_long(v)) return false;
        out.outcome.attempts = static_cast<int>(v);
      } else if (key == "params") {
        if (!ps.parse_pairs(out.point.params)) return false;
      } else if (key == "metrics") {
        if (!ps.parse_pairs(out.outcome.metrics)) return false;
      } else if (key == "error") {
        if (!ps.parse_string(out.outcome.error)) return false;
      } else if (key == "failure") {
        if (!ps.parse_failure(out.outcome.failure)) return false;
      } else {
        if (!ps.skip_value()) return false;
      }
    } while (ps.peek(',') && ps.consume(','));
  }
  if (!ps.consume('}')) return false;
  ps.skip_ws();
  return have_index && ps.p == ps.end && !ps.fail;
}

bool load_checkpoint(const std::string& path, CheckpointData& out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot read checkpoint file '" + path + "'";
    return false;
  }
  out.records.clear();
  std::string line;
  long skipped = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    CheckpointRecord rec;
    if (!parse_checkpoint_line(line, rec)) {
      ++skipped;  // torn tail write or foreign garbage: drop, keep loading
      continue;
    }
    out.records[rec.index] = std::move(rec);  // last record per index wins
  }
  if (skipped > 0 && err != nullptr)
    *err = std::to_string(skipped) + " malformed line(s) skipped";
  return true;
}

}  // namespace usys::spice
