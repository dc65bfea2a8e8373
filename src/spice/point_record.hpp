// PointRecord — one executed sweep point, and the JSON pieces both per-point
// files are built from.
//
// Each sweep point goes to two files: the checkpoint journal
// (spice/checkpoint.hpp) and the stats JSONL document (spice/stats.hpp).
// Both hold this record type and encode its shared fields through the
// functions below; each file frames the fields itself (its own key order,
// and the stats lines leave out attempts/error/failure on purpose).
//
// Values are written with json_append_exact: 17 significant digits through
// std::to_chars for finite doubles (byte-identical to printf's %g at
// precision 17), null for NaN, "inf"/"-inf" for the infinities — every line
// is plain JSON that json_parse accepts, and every value restores bit for
// bit.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "spice/sweep.hpp"

namespace usys::spice {

/// One executed grid point: its global index, the parameters it ran with,
/// and its outcome (including the structured failure).
struct PointRecord {
  long index = -1;
  SweepPoint point;
  SweepOutcome outcome;
};

/// Largest grid index a record may carry (integers above 2^53 do not
/// survive JSON's double-only numbers).
constexpr long kMaxPointIndex = 1L << 53;

using NamedValues = std::vector<std::pair<std::string, double>>;

/// Appends `[["name",value],...]`.
void append_named_values(std::string& out, const NamedValues& pairs);

/// Reads `[["name",value],...]` (values as json_read_exact accepts them);
/// false on any other shape.
bool read_named_values(const JsonValue& v, NamedValues& out);

/// Reads an int field: an integral number in [lo, INT_MAX].
bool read_int(const JsonValue& v, int lo, int& out);

/// Appends the failure object `{"kind":...,"analysis":...,"time":...,
/// "iteration":...,"rescue":...,"detail":...}`.
void append_failure(std::string& out, const FailureInfo& f);

/// Reads a failure object; absent members keep their defaults, unknown
/// members are ignored. False on an unknown kind or a mistyped member.
bool read_failure(const JsonValue& v, FailureInfo& out);

/// Reads the record's grid index from a parsed line's "i" member.
bool read_point_index(const JsonValue& line, long& out);

}  // namespace usys::spice
