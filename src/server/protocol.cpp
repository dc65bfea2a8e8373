#include "server/protocol.hpp"

#include "common/json.hpp"

namespace usys::server {

bool parse_request(const std::string& line, Request& out, std::string& error) {
  const auto doc = json_parse(line);
  if (!doc || !doc->is_object()) {
    error = "malformed JSON request";
    return false;
  }
  // Wire integers go through json_read_integer: a cast of an untrusted
  // double would truncate 1.5 and is undefined for 1e300.
  const JsonValue* version = doc->find("v");
  long v = 0;
  if (version == nullptr ||
      !json_read_integer(*version, kProtocolVersion, kProtocolVersion, v)) {
    error = "missing or unsupported protocol version (want \"v\":1)";
    return false;
  }
  const std::string op = doc->get_string("op", "run");
  if (op == "run") {
    out.op = Request::Op::run;
  } else if (op == "sweep") {
    out.op = Request::Op::sweep;
  } else if (op == "stats") {
    out.op = Request::Op::stats;
  } else if (op == "ping") {
    out.op = Request::Op::ping;
  } else if (op == "shutdown") {
    out.op = Request::Op::shutdown;
  } else {
    error = "unknown op '" + op + "'";
    return false;
  }
  if (out.op != Request::Op::run && out.op != Request::Op::sweep) return true;

  out.netlist = doc->get_string("netlist");
  if (out.netlist.empty()) {
    error = "run request needs a non-empty \"netlist\"";
    return false;
  }
  out.hdl_mode = doc->get_string("hdl");
  out.timeout_ms = doc->get_number("timeout_ms", 0.0);
  out.no_cache = doc->get_bool("no_cache", false);
  out.set_specs.clear();
  if (const JsonValue* set = doc->find("set"); set != nullptr && set->is_array()) {
    for (const auto& item : set->items()) {
      if (!item.is_string()) {
        error = "\"set\" entries must be strings (\"DEV.PARAM=value\")";
        return false;
      }
      out.set_specs.push_back(item.as_string());
    }
  }
  if (out.timeout_ms < 0.0) {
    error = "timeout_ms must be >= 0";
    return false;
  }
  if (out.op == Request::Op::sweep) {
    long mc = 1;
    if (const JsonValue* m = doc->find("mc");
        m != nullptr && !json_read_integer(*m, 1, api::kMaxMcSamples, mc)) {
      error = "\"mc\" must be an integer in [1, 1e7]";
      return false;
    }
    out.mc = static_cast<int>(mc);
    out.seed = doc->get_string("seed", "0");
    out.sweep_specs.clear();
    if (const JsonValue* sw = doc->find("sweep"); sw != nullptr && sw->is_array()) {
      for (const auto& item : sw->items()) {
        if (!item.is_string()) {
          error = "\"sweep\" entries must be strings (\"name=spec\")";
          return false;
        }
        out.sweep_specs.push_back(item.as_string());
      }
    }
  }
  return true;
}

std::string build_request(const Request& req) {
  JsonValue doc = JsonValue::make_object();
  doc.set("v", JsonValue::make_number(kProtocolVersion));
  switch (req.op) {
    case Request::Op::stats: doc.set("op", JsonValue::make_string("stats")); break;
    case Request::Op::ping: doc.set("op", JsonValue::make_string("ping")); break;
    case Request::Op::shutdown: doc.set("op", JsonValue::make_string("shutdown")); break;
    case Request::Op::run:
    case Request::Op::sweep: {
      doc.set("op", JsonValue::make_string(req.op == Request::Op::run ? "run" : "sweep"));
      doc.set("netlist", JsonValue::make_string(req.netlist));
      if (!req.hdl_mode.empty()) doc.set("hdl", JsonValue::make_string(req.hdl_mode));
      if (!req.set_specs.empty()) {
        JsonValue set = JsonValue::make_array();
        for (const auto& s : req.set_specs) set.push_back(JsonValue::make_string(s));
        doc.set("set", std::move(set));
      }
      if (req.timeout_ms > 0.0) doc.set("timeout_ms", JsonValue::make_number(req.timeout_ms));
      if (req.no_cache) doc.set("no_cache", JsonValue::make_bool(true));
      if (req.op == Request::Op::sweep) {
        if (req.mc != 1) doc.set("mc", JsonValue::make_number(req.mc));
        if (req.seed != "0") doc.set("seed", JsonValue::make_string(req.seed));
        if (!req.sweep_specs.empty()) {
          JsonValue sw = JsonValue::make_array();
          for (const auto& s : req.sweep_specs) sw.push_back(JsonValue::make_string(s));
          doc.set("sweep", std::move(sw));
        }
      }
      break;
    }
  }
  return doc.dump();
}

// ---------------------------------------------------------------------------
// Frames. Built with the append helpers (not JsonValue) on the hot paths:
// a rows frame for an array-scale transient carries megabytes of numbers.
// ---------------------------------------------------------------------------

namespace {

std::string frame_head(const char* frame) {
  std::string out = "{\"v\":1,\"frame\":\"";
  out += frame;
  out += '"';
  return out;
}

}  // namespace

std::string status_frame(long job_id, const std::string& hash, const char* cached,
                         int queue_depth) {
  std::string out = frame_head("status");
  out += ",\"job\":" + std::to_string(job_id);
  out += ",\"hash\":";
  json_append_escaped(out, hash);
  out += ",\"cached\":";
  json_append_escaped(out, cached);
  out += ",\"queue_depth\":" + std::to_string(queue_depth) + "}";
  return out;
}

std::string series_frame(std::size_t analysis, const char* kind,
                         const std::vector<std::string>& columns) {
  std::string out = frame_head("series");
  out += ",\"analysis\":" + std::to_string(analysis);
  out += ",\"kind\":";
  json_append_escaped(out, kind);
  out += ",\"columns\":[";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ',';
    json_append_escaped(out, columns[i]);
  }
  out += "]}";
  return out;
}

std::string rows_frame(std::size_t analysis,
                       const std::vector<std::vector<double>>& rows) {
  std::string out = frame_head("rows");
  out += ",\"analysis\":" + std::to_string(analysis);
  out += ",\"data\":[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ',';
      json_append_double(out, rows[r][c]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

std::string end_series_frame(std::size_t analysis, std::size_t points) {
  std::string out = frame_head("end_series");
  out += ",\"analysis\":" + std::to_string(analysis);
  out += ",\"points\":" + std::to_string(points) + "}";
  return out;
}

std::string error_frame(int code, const std::string& kind, const std::string& message) {
  std::string out = frame_head("error");
  out += ",\"code\":" + std::to_string(code);
  out += ",\"kind\":";
  json_append_escaped(out, kind);
  out += ",\"message\":";
  json_append_escaped(out, message);
  out += '}';
  return out;
}

std::string busy_frame(int queue_depth, int capacity) {
  std::string out = frame_head("busy");
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += ",\"capacity\":" + std::to_string(capacity);
  out += ",\"message\":\"job queue full; retry later\"}";
  return out;
}

std::string done_frame(bool ok, int exit_code, bool parsed, bool bound, bool rebound,
                       int symbolic_factorizations, double elapsed_ms,
                       const char* cached) {
  std::string out = frame_head("done");
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"exit_code\":" + std::to_string(exit_code);
  out += ",\"parsed\":";
  out += parsed ? "true" : "false";
  out += ",\"bound\":";
  out += bound ? "true" : "false";
  out += ",\"rebound\":";
  out += rebound ? "true" : "false";
  out += ",\"symbolic\":" + std::to_string(symbolic_factorizations);
  out += ",\"elapsed_ms\":";
  json_append_double(out, elapsed_ms);
  out += ",\"cached\":";
  json_append_escaped(out, cached);
  out += '}';
  return out;
}

std::string sweep_stats_frame(const spice::StatsRun& run) {
  const spice::YieldSummary y = run.yield();
  std::string out = frame_head("sweep_stats");
  out += ",\"points\":" + std::to_string(run.total_points);
  out += ",\"ran\":" + std::to_string(y.n);
  out += ",\"ok\":" + std::to_string(y.ok);
  out += ",\"pass\":" + std::to_string(y.pass);
  out += ",\"yield\":";
  json_append_double(out, y.yield);
  out += ",\"metrics\":[";
  bool first = true;
  for (const auto& s : run.metric_summaries()) {
    if (!first) out += ',';
    first = false;
    out += '{';
    spice::append_metric_summary(out, s);
    out += '}';
  }
  out += "],\"measures\":";
  spice::append_measure_failures(out, y);
  out += '}';
  return out;
}

std::string pong_frame() { return frame_head("pong") + "}"; }
std::string bye_frame() { return frame_head("bye") + "}"; }

}  // namespace usys::server
