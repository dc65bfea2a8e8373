// Sweep checkpoint journal: crash-safe progress for long parameter sweeps.
//
// A checkpoint is a JSONL file — one self-contained JSON object per line,
// appended (and flushed) as each grid point finishes. The format is
// append-only on purpose:
//
//   * a crash can only lose the line being written; load_checkpoint ignores
//     a torn trailing line and keeps everything before it;
//   * shard files (usim --shard k/n) merge by plain concatenation — every
//     record carries its grid index, so order never matters;
//   * re-runs of the same point simply append again; the LAST record for an
//     index wins on load (later attempts supersede earlier ones).
//
// Record schema (see docs/robustness.md for the contract):
//
//   {"i":<grid index>,"ok":<bool>,"attempts":<int>,
//    "params":[["name",<value>],...],
//    "metrics":[["name",<value>],...],
//    "error":"<string>",
//    "failure":{"kind":"<FailureKind name>","analysis":"...","time":<value>,
//               "iteration":<int>,"rescue":<int>,"detail":"..."}}   // only when !ok
//
// A <value> is a number with 17 significant digits through std::to_chars
// (byte-identical to printf's %g at precision 17), null for NaN, or
// "inf"/"-inf" (the shared per-point codec, spice/point_record.hpp), so
// every line is plain JSON and a value restored from a checkpoint
// round-trips bit for bit — the basis of the "--resume reproduces completed
// points bit-identically" guarantee.
// Lines are read through json_parse; integer fields must be integral and in
// range, or the line is rejected like a torn one. params are recorded so
// resume can verify the checkpoint actually belongs to the grid being run.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "spice/point_record.hpp"

namespace usys::spice {

/// All records of a checkpoint file, last-write-wins per grid index.
struct CheckpointData {
  std::map<long, PointRecord> records;
};

/// Appends records to `path` (created when absent), one flushed line per
/// append so a killed process loses at most the line in flight. Thread-safe
/// appends are the caller's job (SweepRunner serializes them).
class CheckpointWriter {
 public:
  /// Throws std::runtime_error when the file cannot be opened for append.
  explicit CheckpointWriter(const std::string& path);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  void append(long index, const SweepPoint& point, const SweepOutcome& outcome);

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

/// Loads a checkpoint file. Returns false only when the file cannot be read
/// at all; malformed lines (torn tail writes) are skipped with a note in
/// *err when provided. A missing file is an error — callers distinguish
/// "fresh start" from "resume" before calling.
bool load_checkpoint(const std::string& path, CheckpointData& out, std::string* err = nullptr);

/// Serializes one record to its JSONL line (no trailing newline) — exposed
/// for tests; append() uses it.
std::string checkpoint_line(long index, const SweepPoint& point, const SweepOutcome& outcome);

/// Parses one JSONL line into a record; false on malformed input.
bool parse_checkpoint_line(const std::string& line, PointRecord& out);

}  // namespace usys::spice
