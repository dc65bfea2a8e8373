#include "spice/point_record.hpp"

#include <climits>

namespace usys::spice {

void append_named_values(std::string& out, const NamedValues& pairs) {
  out += '[';
  bool first = true;
  for (const auto& [name, value] : pairs) {
    if (!first) out += ',';
    first = false;
    out += '[';
    json_append_escaped(out, name);
    out += ',';
    json_append_exact(out, value);
    out += ']';
  }
  out += ']';
}

bool read_named_values(const JsonValue& v, NamedValues& out) {
  if (!v.is_array()) return false;
  out.clear();
  out.reserve(v.items().size());
  for (const auto& item : v.items()) {
    double value = 0.0;
    if (!item.is_array() || item.items().size() != 2 ||
        !item.items()[0].is_string() || !json_read_exact(item.items()[1], value))
      return false;
    out.emplace_back(item.items()[0].as_string(), value);
  }
  return true;
}

void append_failure(std::string& out, const FailureInfo& f) {
  out += "{\"kind\":";
  json_append_escaped(out, to_string(f.kind));
  out += ",\"analysis\":";
  json_append_escaped(out, f.analysis);
  out += ",\"time\":";
  json_append_exact(out, f.time);
  out += ",\"iteration\":";
  json_append_integer(out, f.iteration);
  out += ",\"rescue\":";
  json_append_integer(out, f.rescue_attempts);
  out += ",\"detail\":";
  json_append_escaped(out, f.detail);
  out += '}';
}

bool read_int(const JsonValue& v, int lo, int& out) {
  long wide = 0;
  if (!json_read_integer(v, lo, INT_MAX, wide)) return false;
  out = static_cast<int>(wide);
  return true;
}

bool read_failure(const JsonValue& v, FailureInfo& out) {
  if (!v.is_object()) return false;
  for (const auto& [key, m] : v.members()) {
    bool ok = true;
    if (key == "kind") {
      ok = m.is_string() && failure_kind_from_string(m.as_string(), out.kind);
    } else if (key == "analysis") {
      ok = m.is_string();
      out.analysis = m.as_string();
    } else if (key == "time") {
      ok = json_read_exact(m, out.time);
    } else if (key == "iteration") {
      ok = read_int(m, -1, out.iteration);
    } else if (key == "rescue") {
      ok = read_int(m, 0, out.rescue_attempts);
    } else if (key == "detail") {
      ok = m.is_string();
      out.detail = m.as_string();
    }
    if (!ok) return false;
  }
  return true;
}

bool read_point_index(const JsonValue& line, long& out) {
  const JsonValue* i = line.find("i");
  return i != nullptr && json_read_integer(*i, 0, kMaxPointIndex, out);
}

}  // namespace usys::spice
