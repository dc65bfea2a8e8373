// Minimal JSON value model for the line-delimited wire protocols and files.
//
// The simulation server (src/server) speaks newline-delimited JSON over a
// Unix socket (docs/server.md), and sweeps journal and summarize their
// points as JSONL files (spice/checkpoint.hpp, spice/stats.hpp); this is
// the small, dependency-free parser and writer behind all of them. It
// covers the full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null) with two deliberate, protocol-friendly
// simplifications:
//
//   * all numbers are double (the wire schema only carries doubles/ints
//     within the 2^53 exact range);
//   * object key order is preserved on write but lookup is linear — request
//     objects are a handful of keys, so a map would cost more than it saves.
//
// Numbers go through one codec in both directions. The writer prints 17
// significant digits through std::to_chars (byte-identical to printf's %g
// at precision 17 in the C locale), which every finite double survives bit
// for bit. The reader scans the RFC 8259 number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts the span
// with std::from_chars: hex, a leading '+' or '.', a trailing '.', leading
// zeros and any literal outside double's range (1e999, 1e-400) are syntax
// errors.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace usys {

/// One JSON value. Cheap to move; copies duplicate the whole subtree.
class JsonValue {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  JsonValue() = default;
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();
  /// An object of `members` in order. A repeated key keeps its first
  /// position and its last value, as repeated set() calls would; built in
  /// O(n log n), so json_parse stays fast on hostile many-key lines.
  static JsonValue make_object(std::vector<std::pair<std::string, JsonValue>> members);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::null; }
  bool is_object() const noexcept { return kind_ == Kind::object; }
  bool is_array() const noexcept { return kind_ == Kind::array; }
  bool is_string() const noexcept { return kind_ == Kind::string; }
  bool is_number() const noexcept { return kind_ == Kind::number; }
  bool is_bool() const noexcept { return kind_ == Kind::boolean; }

  bool as_bool(bool fallback = false) const noexcept;
  double as_number(double fallback = 0.0) const noexcept;
  const std::string& as_string() const noexcept { return str_; }

  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const noexcept {
    return members_;
  }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;

  /// Typed member accessors with fallbacks (absent / wrong type -> fallback).
  std::string get_string(const std::string& key, const std::string& fallback = "") const;
  double get_number(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Mutators (builder style; no-ops unless the value has the right kind).
  /// set() replaces an existing key's value in place, by a linear scan.
  void push_back(JsonValue v);
  void set(std::string key, JsonValue v);

  /// Serializes to compact JSON (no whitespace). NaN/inf render as null —
  /// JSON has no non-finite literals, and the wire schema maps null back.
  std::string dump() const;

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document; nullopt on any syntax error (including trailing
/// garbage after the document). Depth-limited so a hostile request cannot
/// overflow the stack.
std::optional<JsonValue> json_parse(const std::string& text);

/// Appends `v` to `out` as a JSON string literal (quotes + escapes). Shared
/// with the hand-rolled fast paths that build frames without a JsonValue.
void json_append_escaped(std::string& out, std::string_view v);

/// Appends the UTF-8 encoding of a `\uXXXX` escape's code point (BMP
/// only: surrogate halves are encoded as-is, the wire schemas are ASCII).
void json_append_utf8(std::string& out, unsigned code);

/// Appends `v` with 17 significant digits through std::to_chars: the bytes
/// printf's %g at precision 17 writes in the C locale, the non-finite
/// spellings ("inf", "-inf", "nan", "-nan") included. Not JSON for
/// non-finite values; the paths that substitute numbers into netlist text
/// use it directly.
void append_g17(std::string& out, double v);

/// Appends a double as a JSON number with round-trip precision (17
/// significant digits through std::to_chars, as append_g17);
/// NaN/inf append "null".
void json_append_double(std::string& out, double v);

/// Appends an integer in decimal (std::to_chars; no temporary string).
void json_append_integer(std::string& out, long v);

/// Appends a double so that every value survives json_parse + json_read_exact
/// bit for bit: finite values as json_append_double does, NaN as null and
/// the infinities as the strings "inf" / "-inf". Used by the per-record
/// sweep files, whose values may legitimately be non-finite (the dB of an
/// undriven node is -inf).
void json_append_exact(std::string& out, double v);

/// Reads a value written by json_append_exact: a number, null (NaN) or the
/// string "inf" / "-inf". False for any other value.
bool json_read_exact(const JsonValue& v, double& out);

/// Reads an integer field from untrusted input: true only when `v` is a
/// finite, integral number inside [lo, hi] (both within +-2^53).
bool json_read_integer(const JsonValue& v, long lo, long hi, long& out);

}  // namespace usys
