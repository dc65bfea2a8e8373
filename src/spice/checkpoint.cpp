#include "spice/checkpoint.hpp"

#include <fstream>
#include <stdexcept>

namespace usys::spice {

std::string checkpoint_line(long index, const SweepPoint& point,
                            const SweepOutcome& outcome) {
  std::string s;
  s.reserve(128);
  s += "{\"i\":";
  json_append_integer(s, index);
  s += ",\"ok\":";
  s += outcome.ok ? "true" : "false";
  s += ",\"attempts\":";
  json_append_integer(s, outcome.attempts);
  s += ",\"params\":";
  append_named_values(s, point.params);
  s += ",\"metrics\":";
  append_named_values(s, outcome.metrics);
  s += ",\"error\":";
  json_append_escaped(s, outcome.error);
  if (!outcome.ok) {
    s += ",\"failure\":";
    append_failure(s, outcome.failure);
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

bool parse_checkpoint_line(const std::string& line, PointRecord& out) {
  out = PointRecord{};
  const auto doc = json_parse(line);
  if (!doc || !read_point_index(*doc, out.index)) return false;
  // Unknown keys are ignored so the format can grow fields without breaking
  // old readers; a known key with the wrong type rejects the line.
  for (const auto& [key, v] : doc->members()) {
    bool ok = true;
    if (key == "ok") {
      ok = v.is_bool();
      out.outcome.ok = v.as_bool();
    } else if (key == "attempts") {
      ok = read_int(v, 0, out.outcome.attempts);
    } else if (key == "params") {
      ok = read_named_values(v, out.point.params);
    } else if (key == "metrics") {
      ok = read_named_values(v, out.outcome.metrics);
    } else if (key == "error") {
      ok = v.is_string();
      out.outcome.error = v.as_string();
    } else if (key == "failure") {
      ok = read_failure(v, out.outcome.failure);
    }
    if (!ok) return false;
  }
  return true;
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
    PointRecord rec;
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
