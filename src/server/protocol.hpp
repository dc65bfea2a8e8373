// Wire protocol of the simulation server (docs/server.md).
//
// Line-delimited JSON over a local Unix socket, version-tagged: every line —
// request and response alike — carries `"v":1`. One request per connection;
// the server answers with a stream of response frames and closes.
//
//   request  {"v":1,"op":"run","netlist":"...","hdl":"...","set":[...],...}
//            {"v":1,"op":"sweep","netlist":"...","sweep":[...],"mc":N,"seed":"S",...}
//            {"v":1,"op":"stats"} | {"v":1,"op":"ping"} | {"v":1,"op":"shutdown"}
//   frames   status -> (series -> rows* -> end_series)* -> [error] -> done
//            status -> sweep_stats -> [error] -> done        (op == sweep)
//            or: busy | stats | pong | bye | error
//
// This header owns the translation both directions: request line -> Request
// struct (parse_request / build_request for the client) and result pieces ->
// frame lines (each builder returns ONE line, no trailing newline).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "spice/stats.hpp"

namespace usys::server {

inline constexpr int kProtocolVersion = 1;

/// One parsed client request.
struct Request {
  enum class Op { run, sweep, stats, ping, shutdown } op = Op::run;
  std::string netlist;                 ///< netlist text (op == run | sweep)
  std::string hdl_mode;                ///< "" = netlist decides
  std::vector<std::string> set_specs;  ///< "DEV.PARAM=value" overrides
  double timeout_ms = 0.0;             ///< per-job wall budget; 0 = none
  bool no_cache = false;               ///< bypass the result cache (benching)

  // op == sweep: a Monte Carlo / corner batch (docs/sweeps.md). The
  // netlist's own .param/.measure cards apply; `sweep_specs` adds
  // "name=lo:hi:n | v1,v2 | normal(mu,sigma) | uniform(lo,hi) |
  // corner(...)" entries on top, exactly the usim --sweep grammar.
  std::vector<std::string> sweep_specs;
  int mc = 1;               ///< Monte Carlo draws per grid combination
  std::string seed = "0";   ///< RNG seed, decimal uint64 as text
};

/// Parses one request line. False (with `error` filled) on malformed JSON,
/// wrong/missing version, unknown op, or a run request without a netlist.
bool parse_request(const std::string& line, Request& out, std::string& error);

/// Client side: serializes a Request back to one wire line.
std::string build_request(const Request& req);

// --- response frame builders ------------------------------------------------

/// Job admitted: which cache tier served it. `cached` is one of
/// "cold" (fresh parse+bind), "warm" (engine cache, exact hash),
/// "delta" (engine cache + rebind for overrides), "result" (replayed frames).
std::string status_frame(long job_id, const std::string& hash, const char* cached,
                         int queue_depth);

/// Opens one analysis' series: kind is "op" / "tran" / "ac".
std::string series_frame(std::size_t analysis, const char* kind,
                         const std::vector<std::string>& columns);

/// A batch of data rows for the currently open series.
std::string rows_frame(std::size_t analysis,
                       const std::vector<std::vector<double>>& rows);

std::string end_series_frame(std::size_t analysis, std::size_t points);

/// Analysis/job failure. `code` is the usim exit-code contract (1/2/3),
/// `kind` a FailureKind name ("newton-divergence", ...).
std::string error_frame(int code, const std::string& kind, const std::string& message);

/// Queue-full rejection — sent instead of status, then the connection closes.
std::string busy_frame(int queue_depth, int capacity);

/// Terminal frame of every run. Carries the job's cache provenance so
/// clients (and the warm-cache tests) can verify what the job paid.
std::string done_frame(bool ok, int exit_code, bool parsed, bool bound, bool rebound,
                       int symbolic_factorizations, double elapsed_ms,
                       const char* cached);

/// Result payload of a sweep job: grid size, executed/ok/pass counts,
/// yield, per-metric summaries (count/mean/stddev/min/max/quantiles) and
/// per-measure failure counts — the distilled StatsRun, not per-point data
/// (shard locally with usim for point-level files).
std::string sweep_stats_frame(const spice::StatsRun& run);

std::string pong_frame();
std::string bye_frame();

}  // namespace usys::server
