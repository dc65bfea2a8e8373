// SimServer integration tests, in-process: each test starts a real daemon on
// a unique /tmp socket and talks the v1 wire protocol through UnixConn (no
// usim subprocess — the server library IS the daemon, tools/usim.cpp only
// flags-parses into it).
//
// Covered: control ops (ping/stats/shutdown), cold-vs-warm bit-identity on
// the same hash, result-cache replay, the parameter-delta rebind path vs a
// cold run of the edited netlist, queue saturation -> structured busy
// rejection, client disconnect mid-stream cancelling via the job's
// CancelToken, per-job deadlines (exit 3), bad-request handling, request
// size and read-time bounds, retired wire keys ignored, engine cache
// eviction/cooling, and /stats self-consistency.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/json.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"
#include "common/socket.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace usys::server {
namespace {

using Clock = std::chrono::steady_clock;

// RC job: analysis-light, parse-cheap — exercises the cache tiers fast.
const char* kRcNetlist = R"(* rc lowpass
V1 in 0 5
R1 in out 1k
C1 out 0 1u
.op
.tran 10u 2m
.end
)";

const char* kRcEdited = R"(* rc lowpass
V1 in 0 5
R1 in out 2k
C1 out 0 1u
.op
.tran 10u 2m
.end
)";

// Slow job (~0.8 s of transient on a 120-element ladder): long enough that a
// test can reliably act while it runs (cancel it, queue behind it) without
// being timing-flaky on a loaded machine.
std::string slow_netlist() {
  std::ostringstream os;
  os << "* transducer ladder\n";
  os << "V1 n0 0 PULSE(0 5 0 1e-5 1e-5 1e-3 2e-3)\n";
  const int n = 120;
  for (int i = 0; i < n; ++i) {
    os << "R" << i << " n" << i << " n" << (i + 1) << " 100\n";
    os << "C" << i << " n" << (i + 1) << " 0 1u\n";
  }
  os << ".tran 1e-6 4e-2\n.end\n";
  return os.str();
}

std::string unique_socket(const char* tag) {
  return "/tmp/usys_srv_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

ServerOptions small_server(const char* tag) {
  ServerOptions opts;
  opts.socket_path = unique_socket(tag);
  opts.workers = 2;
  opts.queue_capacity = 8;
  opts.engine_cache_capacity = 4;
  return opts;
}

/// One started server, stopped on scope exit.
struct TestServer {
  explicit TestServer(ServerOptions opts) : server(std::move(opts)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~TestServer() { server.stop(); }
  SimServer server;
  bool started = false;
};

Request run_request(std::string netlist) {
  Request req;
  req.op = Request::Op::run;
  req.netlist = std::move(netlist);
  return req;
}

/// Submits `req` and reads every frame line until the peer closes.
std::vector<std::string> submit(const SimServer& server, const Request& req) {
  std::vector<std::string> frames;
  UnixConn conn = UnixConn::connect_to(server.socket_path());
  EXPECT_TRUE(conn.valid());
  if (!conn.valid()) return frames;
  EXPECT_TRUE(conn.write_all(build_request(req) + "\n"));
  std::string line;
  while (conn.read_line(line, 30000)) frames.push_back(line);
  return frames;
}

JsonValue parse_frame(const std::string& line) {
  auto v = json_parse(line);
  EXPECT_TRUE(v.has_value() && v->is_object()) << "unparsable frame: " << line;
  return v.value_or(JsonValue::make_object());
}

/// The first frame with the given name, if any.
std::optional<JsonValue> find_frame(const std::vector<std::string>& frames,
                                    const std::string& name) {
  for (const auto& line : frames) {
    JsonValue v = parse_frame(line);
    if (v.get_string("frame") == name) return v;
  }
  return std::nullopt;
}

/// Frames minus the tier-dependent envelope (status + done carry the cache
/// label and timings); what remains must be byte-identical across tiers.
std::vector<std::string> payload_frames(const std::vector<std::string>& frames) {
  std::vector<std::string> out;
  for (const auto& line : frames) {
    const std::string name = parse_frame(line).get_string("frame");
    if (name != "status" && name != "done") out.push_back(line);
  }
  return out;
}

/// Polls `pred` against fresh stats until true or ~5 s elapse.
bool wait_for_stats(const SimServer& server,
                    const std::function<bool(const StatsSnapshot&)>& pred) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred(server.stats());
}

// --- control ops -------------------------------------------------------------

TEST(Server, PingStatsShutdownRoundTrip) {
  TestServer ts(small_server("ctl"));
  ASSERT_TRUE(ts.started);

  Request ping;
  ping.op = Request::Op::ping;
  auto frames = submit(ts.server, ping);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "pong");

  Request stats;
  stats.op = Request::Op::stats;
  frames = submit(ts.server, stats);
  ASSERT_EQ(frames.size(), 1u);
  JsonValue s = parse_frame(frames[0]);
  EXPECT_EQ(s.get_string("frame"), "stats");
  EXPECT_EQ(s.get_number("v"), 1.0);
  EXPECT_EQ(s.get_number("jobs_submitted"), 0.0);

  Request shutdown;
  shutdown.op = Request::Op::shutdown;
  frames = submit(ts.server, shutdown);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "bye");
  // wait() must return promptly once a shutdown request landed.
  ts.server.wait();
}

TEST(Server, MalformedRequestsGetStructuredErrors) {
  TestServer ts(small_server("bad"));
  ASSERT_TRUE(ts.started);

  const auto send_raw = [&](const std::string& line) {
    UnixConn conn = UnixConn::connect_to(ts.server.socket_path());
    EXPECT_TRUE(conn.valid());
    EXPECT_TRUE(conn.write_all(line + "\n"));
    std::string reply;
    EXPECT_TRUE(conn.read_line(reply, 30000));
    return parse_frame(reply);
  };

  JsonValue e1 = send_raw("this is not json");
  EXPECT_EQ(e1.get_string("frame"), "error");
  EXPECT_EQ(e1.get_number("code"), 2.0);

  JsonValue e2 = send_raw(R"({"v":99,"op":"ping"})");  // wrong version
  EXPECT_EQ(e2.get_string("frame"), "error");

  JsonValue e3 = send_raw(R"({"v":1,"op":"run"})");  // run without netlist
  EXPECT_EQ(e3.get_string("frame"), "error");

  // Wire integers that are out of range, fractional, negative or strings.
  const auto expect_bad_request = [](const JsonValue& frame, const char* field,
                                     const std::string& what) {
    EXPECT_EQ(frame.get_string("frame"), "error") << what;
    EXPECT_EQ(frame.get_number("code"), 2.0) << what;
    EXPECT_EQ(frame.get_string("kind"), "bad-request") << what;
    EXPECT_NE(frame.get_string("message").find(field), std::string::npos) << what;
  };
  for (const std::string bad : {"1e300", "1.5", "-1", "\"1\""})
    expect_bad_request(send_raw(R"({"v":)" + bad + R"(,"op":"ping"})"), "protocol version",
                       "v=" + bad);
  const std::string sweep =
      R"({"v":1,"op":"sweep","netlist":"* rc\nV1 in 0 1\nR1 in 0 1k\n.op\n.end\n","mc":)";
  for (const std::string bad : {"1e300", "2.7", "-1", "\"5\""})
    expect_bad_request(send_raw(sweep + bad + "}"), "\"mc\"", "mc=" + bad);

  EXPECT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.bad_requests == 3 + 8; }));
}

TEST(Server, OversizedRequestIsTooLargeAndServerStaysUp) {
  TestServer ts(small_server("big"));
  ASSERT_TRUE(ts.started);

  UnixConn conn = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(conn.valid());
  // Newline-free and past the cap: the server stops reading at the cap,
  // answers and closes, so this write may end early with a closed pipe.
  const std::string blob(kMaxRequestBytes + 65536, 'x');
  (void)conn.write_all(blob);
  std::string reply;
  ASSERT_TRUE(conn.read_line(reply, 30000));
  JsonValue e = parse_frame(reply);
  EXPECT_EQ(e.get_string("frame"), "error");
  EXPECT_EQ(e.get_number("code"), 2.0);
  EXPECT_EQ(e.get_string("kind"), "too-large");

  Request ping;
  ping.op = Request::Op::ping;
  const auto frames = submit(ts.server, ping);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "pong");
  EXPECT_EQ(ts.server.stats().bad_requests, 1);
}

TEST(Server, DribblingClientIsCutOffAfterAcceptTimeout) {
  ServerOptions opts = small_server("drip");
  opts.accept_timeout_ms = 300;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  UnixConn conn = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(conn.valid());
  // One byte every 50 ms never lets a single poll wait 300 ms; only a
  // deadline on the whole line ends this request.
  const auto t0 = Clock::now();
  bool cut_off = false;
  while (Clock::now() - t0 < std::chrono::seconds(5)) {
    if (conn.peer_hung_up() || !conn.write_all("x", 1)) {
      cut_off = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  EXPECT_TRUE(cut_off);
  EXPECT_GE(elapsed_ms, 300.0);
  EXPECT_LT(elapsed_ms, 3000.0);

  Request ping;
  ping.op = Request::Op::ping;
  const auto frames = submit(ts.server, ping);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "pong");
}

// Wire integers ("v", "mc") are read through json_read_integer: an
// out-of-range, fractional, negative or string value is a structured
// bad-request, never a truncating (or, for 1e300, undefined) cast.
TEST(Protocol, VersionAndMcMustBeExactIntegers) {
  const char* kBad[] = {"1e300", "1.5", "-1", "\"1\""};
  for (const char* bad : kBad) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_request(std::string(R"({"v":)") + bad + R"(,"op":"ping"})", req, error))
        << bad;
    EXPECT_NE(error.find("protocol version"), std::string::npos) << bad << ": " << error;
  }
  const char* kBadMc[] = {"1e300", "2.7", "-1", "\"5\""};
  for (const char* bad : kBadMc) {
    Request req;
    std::string error;
    EXPECT_FALSE(parse_request(
        std::string(R"({"v":1,"op":"sweep","netlist":"* x\n.end\n","mc":)") + bad + "}", req,
        error))
        << bad;
    EXPECT_NE(error.find("\"mc\" must be an integer"), std::string::npos) << bad << ": " << error;
  }
  Request req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"v":1.0,"op":"sweep","netlist":"* x\n.end\n","mc":2e3})", req,
                            error))
      << error;
  EXPECT_EQ(req.mc, 2000);
  ASSERT_TRUE(parse_request(R"({"v":1,"op":"sweep","netlist":"* x\n.end\n"})", req, error));
  EXPECT_EQ(req.mc, 1);
}

// --- cache tiers -------------------------------------------------------------

TEST(Server, ColdThenWarmSameHashIsBitIdentical) {
  TestServer ts(small_server("warm"));
  ASSERT_TRUE(ts.started);

  Request req = run_request(kRcNetlist);
  req.no_cache = true;  // force the engine (not the result cache) both times

  const auto cold = submit(ts.server, req);
  auto cold_done = find_frame(cold, "done");
  ASSERT_TRUE(cold_done.has_value());
  EXPECT_TRUE(cold_done->get_bool("ok"));
  EXPECT_TRUE(cold_done->get_bool("parsed"));
  EXPECT_TRUE(cold_done->get_bool("bound"));
  EXPECT_EQ(cold_done->get_string("cached"), "cold");
  auto cold_status = find_frame(cold, "status");
  ASSERT_TRUE(cold_status.has_value());
  EXPECT_EQ(cold_status->get_string("hash"), api::content_hash(kRcNetlist));

  const auto warm = submit(ts.server, req);
  auto warm_done = find_frame(warm, "done");
  ASSERT_TRUE(warm_done.has_value());
  EXPECT_TRUE(warm_done->get_bool("ok"));
  // The warm repeat pays neither parse nor bind nor symbolic factorization.
  EXPECT_FALSE(warm_done->get_bool("parsed"));
  EXPECT_FALSE(warm_done->get_bool("bound"));
  EXPECT_FALSE(warm_done->get_bool("rebound"));
  EXPECT_EQ(warm_done->get_number("symbolic"), 0.0);
  EXPECT_EQ(warm_done->get_string("cached"), "warm");

  // Same hash, same engine: the data frames must match byte for byte.
  EXPECT_EQ(payload_frames(cold), payload_frames(warm));

  const StatsSnapshot s = ts.server.stats();
  EXPECT_EQ(s.parses, 1);
  EXPECT_EQ(s.exact_hits, 1);
  EXPECT_EQ(s.result_hits, 0);
}

TEST(Server, ResultCacheReplaysByteIdenticalFrames) {
  TestServer ts(small_server("replay"));
  ASSERT_TRUE(ts.started);

  const Request req = run_request(kRcNetlist);
  const auto first = submit(ts.server, req);
  const auto second = submit(ts.server, req);

  auto replay_status = find_frame(second, "status");
  ASSERT_TRUE(replay_status.has_value());
  EXPECT_EQ(replay_status->get_string("cached"), "result");
  auto replay_done = find_frame(second, "done");
  ASSERT_TRUE(replay_done.has_value());
  EXPECT_TRUE(replay_done->get_bool("ok"));
  EXPECT_EQ(replay_done->get_number("symbolic"), 0.0);

  EXPECT_EQ(payload_frames(first), payload_frames(second));
  EXPECT_EQ(ts.server.stats().result_hits, 1);

  // A request differing only in overrides must NOT replay.
  Request delta = req;
  delta.set_specs.push_back("R1.r=2k");
  auto delta_status = find_frame(submit(ts.server, delta), "status");
  ASSERT_TRUE(delta_status.has_value());
  EXPECT_NE(delta_status->get_string("cached"), "result");
}

/// Retired solver knobs on the wire are untrusted input: "threads" once sized
/// a ThreadPool per job, so {"threads":100000} spawned that many threads.
/// Now they are ignored like any other unknown key — the job must stream
/// exactly the frames the same request without them does.
TEST(Server, RetiredThreadsAndPartitionKeysAreIgnored) {
  TestServer ts(small_server("knobs"));
  ASSERT_TRUE(ts.started);

  Request req = run_request(
      "* array op\nV1 drive 0 2\n"
      "Xarr drive 0 TRANSARRAY n=200 a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4\n.op\n.end\n");
  req.no_cache = true;  // both jobs run the engine, not the result cache
  const auto plain = submit(ts.server, req);

  JsonValue doc = parse_frame(build_request(req));
  doc.set("threads", JsonValue::make_number(100000));
  doc.set("partition", JsonValue::make_bool(true));
  UnixConn conn = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.write_all(doc.dump() + "\n"));
  std::vector<std::string> knobbed;
  std::string line;
  while (conn.read_line(line, 30000)) knobbed.push_back(line);

  auto done = find_frame(knobbed, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->get_bool("ok"));
  ASSERT_TRUE(find_frame(plain, "rows").has_value());
  EXPECT_EQ(payload_frames(plain), payload_frames(knobbed));
}

TEST(Server, ParamDeltaTakesRebindPathAndMatchesColdEditedRun) {
  TestServer ts(small_server("delta"));
  ASSERT_TRUE(ts.started);

  Request prime = run_request(kRcNetlist);
  prime.no_cache = true;
  ASSERT_TRUE(find_frame(submit(ts.server, prime), "done").has_value());

  Request delta = prime;
  delta.set_specs.push_back("R1.r=2k");
  const auto frames = submit(ts.server, delta);
  auto status = find_frame(frames, "status");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->get_string("cached"), "delta");
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->get_bool("ok"));
  EXPECT_FALSE(done->get_bool("parsed"));
  EXPECT_TRUE(done->get_bool("rebound"));
  EXPECT_EQ(ts.server.stats().delta_hits, 1);

  // The delta run must agree with a cold run of the edited netlist text.
  api::Session cold(kRcEdited);
  const api::JobResult want = cold.run();
  ASSERT_TRUE(want.ok);
  const api::SeriesView view = api::series_view(want.analyses[1], cold.circuit());

  // Reassemble the tran series (analysis index 1) from the rows frames.
  std::vector<std::vector<double>> got;
  for (const auto& line : frames) {
    JsonValue v = parse_frame(line);
    if (v.get_string("frame") != "rows" || v.get_number("analysis") != 1.0) continue;
    const JsonValue* rows = v.find("data");
    ASSERT_NE(rows, nullptr);
    for (const auto& row : rows->items()) {
      std::vector<double> r;
      for (const auto& cell : row.items()) r.push_back(cell.as_number());
      got.push_back(std::move(r));
    }
  }
  ASSERT_EQ(got.size(), view.rows);
  for (std::size_t k = 0; k < view.rows; ++k) {
    const std::vector<double> want_row = view.row_at(k);
    ASSERT_EQ(got[k].size(), want_row.size());
    for (std::size_t c = 0; c < want_row.size(); ++c)
      EXPECT_NEAR(got[k][c], want_row[c], 1e-12);
  }

  // Baselines restored: an override-free repeat still matches the original
  // netlist text (exact engine hit, not a drifted circuit).
  const auto again = submit(ts.server, prime);
  auto again_done = find_frame(again, "done");
  ASSERT_TRUE(again_done.has_value());
  EXPECT_EQ(again_done->get_string("cached"), "warm");
  EXPECT_FALSE(again_done->get_bool("rebound"));
}

TEST(Server, BadOverrideSpecIsExitTwo) {
  TestServer ts(small_server("badset"));
  ASSERT_TRUE(ts.started);

  Request req = run_request(kRcNetlist);
  req.set_specs.push_back("R1.r");  // malformed: no value
  const auto frames = submit(ts.server, req);
  auto error = find_frame(frames, "error");
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->get_number("code"), 2.0);
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->get_number("exit_code"), 2.0);

  Request unknown = run_request(kRcNetlist);
  unknown.set_specs.push_back("R99.r=5");  // well-formed, unknown device
  auto done2 = find_frame(submit(ts.server, unknown), "done");
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ(done2->get_number("exit_code"), 2.0);
}

TEST(Server, NetlistErrorIsExitTwo) {
  TestServer ts(small_server("synerr"));
  ASSERT_TRUE(ts.started);

  const auto frames = submit(ts.server, run_request("V1 in 0 not_a_number\n.end\n"));
  auto error = find_frame(frames, "error");
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->get_number("code"), 2.0);
  EXPECT_EQ(error->get_string("kind"), "netlist-error");
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->get_number("exit_code"), 2.0);
  // Failed constructions must not poison the engine cache.
  EXPECT_EQ(ts.server.stats().engines_cached, 0);
}

// --- backpressure, cancellation, deadlines -----------------------------------

TEST(Server, QueueSaturationGetsBusyFrame) {
  ServerOptions opts = small_server("busy");
  opts.workers = 1;
  opts.queue_capacity = 1;
  TestServer ts(std::move(opts));
  ASSERT_TRUE(ts.started);

  const std::string slow = slow_netlist();

  // Job A: occupies the single worker. Submit, then wait until it has been
  // popped off the queue (status frame seen = admitted; queue drains to 0).
  UnixConn a = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(a.write_all(build_request(run_request(slow)) + "\n"));
  std::string line;
  ASSERT_TRUE(a.read_line(line, 30000));
  EXPECT_EQ(parse_frame(line).get_string("frame"), "status");
  ASSERT_TRUE(wait_for_stats(ts.server,
                             [](const StatsSnapshot& s) { return s.queue_depth == 0; }));

  // Job B: fills the one queue slot.
  UnixConn b = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(b.write_all(build_request(run_request(slow)) + "\n"));
  ASSERT_TRUE(wait_for_stats(ts.server,
                             [](const StatsSnapshot& s) { return s.queue_depth == 1; }));

  // Job C: must be rejected with a structured busy frame, not a hang.
  const auto frames = submit(ts.server, run_request(slow));
  ASSERT_EQ(frames.size(), 1u);
  JsonValue busy = parse_frame(frames[0]);
  EXPECT_EQ(busy.get_string("frame"), "busy");
  EXPECT_EQ(busy.get_number("capacity"), 1.0);
  EXPECT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.busy_rejected == 1; }));

  // Let A and B die by disconnect rather than draining megabytes of rows.
}

TEST(Server, ClientDisconnectMidStreamCancelsTheJob) {
  TestServer ts(small_server("hangup"));
  ASSERT_TRUE(ts.started);

  {
    UnixConn conn = UnixConn::connect_to(ts.server.socket_path());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.write_all(build_request(run_request(slow_netlist())) + "\n"));
    std::string line;
    ASSERT_TRUE(conn.read_line(line, 30000));  // job admitted and running
    EXPECT_EQ(parse_frame(line).get_string("frame"), "status");
  }  // peer hangs up here, mid-stream

  // The monitor fires the job's CancelToken; the solver unwinds cooperatively.
  EXPECT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.jobs_cancelled == 1; }));
  const StatsSnapshot s = ts.server.stats();
  EXPECT_EQ(s.jobs_completed, 1);
  EXPECT_EQ(s.jobs_ok, 0);
}

TEST(Server, DeadlineExpiryIsExitThree) {
  TestServer ts(small_server("deadline"));
  ASSERT_TRUE(ts.started);

  Request req = run_request(slow_netlist());
  req.timeout_ms = 50.0;  // the job needs ~800 ms
  const auto frames = submit(ts.server, req);
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->get_bool("ok"));
  EXPECT_EQ(done->get_number("exit_code"), 3.0);
  EXPECT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.jobs_cancelled == 1; }));
}

TEST(Server, UnrepresentableDeadlineMeansUnlimited) {
  TestServer ts(small_server("hugedeadline"));
  ASSERT_TRUE(ts.started);

  // Budgets past steady_clock's range run unbudgeted instead of timing out
  // at once.
  for (const double ms : {1e300, std::numeric_limits<double>::max()}) {
    Request req = run_request(kRcNetlist);
    req.timeout_ms = ms;
    auto done = find_frame(submit(ts.server, req), "done");
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE(done->get_bool("ok")) << ms;
    EXPECT_EQ(done->get_number("exit_code"), 0.0) << ms;
  }
}

// --- eviction and stats ------------------------------------------------------

TEST(Server, EngineCacheEvictsLeastRecentlyUsed) {
  ServerOptions opts = small_server("evict");
  opts.engine_cache_capacity = 1;  // cool beyond 1 warm, erase beyond 2
  TestServer ts(std::move(opts));
  ASSERT_TRUE(ts.started);

  // Three distinct hashes through a capacity-1 cache.
  for (const char* r : {"1k", "2k", "3k"}) {
    std::string text = std::string("* v\nV1 a 0 5\nR1 a 0 ") + r + "\n.op\n.end\n";
    auto done = find_frame(submit(ts.server, run_request(std::move(text))), "done");
    ASSERT_TRUE(done.has_value());
    EXPECT_TRUE(done->get_bool("ok"));
  }

  const StatsSnapshot s = ts.server.stats();
  EXPECT_EQ(s.parses, 3);
  EXPECT_GE(s.cooled, 1);
  EXPECT_GE(s.evictions, 1);
  EXPECT_LE(s.engines_cached, 2);  // warm cap 1, cool tier caps total at 2x
  EXPECT_LE(s.engines_warm, 1);
}

TEST(Server, StatsAreSelfConsistent) {
  TestServer ts(small_server("stats"));
  ASSERT_TRUE(ts.started);

  Request rc = run_request(kRcNetlist);
  submit(ts.server, rc);  // cold
  submit(ts.server, rc);  // result replay
  Request nc = rc;
  nc.no_cache = true;
  submit(ts.server, nc);  // warm engine
  Request delta = nc;
  delta.set_specs.push_back("R1.r=2k");
  submit(ts.server, delta);  // rebind
  submit(ts.server, run_request("V1 a 0 1\nR1 a 0 50\n.op\n.end\n"));  // 2nd cold

  ASSERT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.jobs_completed == 5; }));
  const StatsSnapshot s = ts.server.stats();
  EXPECT_EQ(s.jobs_submitted, 5);
  EXPECT_EQ(s.jobs_completed, s.jobs_ok + s.jobs_failed + s.jobs_cancelled);
  EXPECT_EQ(s.jobs_ok, 5);
  // Every run job is served by exactly one tier.
  EXPECT_EQ(s.parses + s.exact_hits + s.delta_hits + s.result_hits, s.jobs_completed);
  EXPECT_EQ(s.parses, 2);
  EXPECT_EQ(s.result_hits, 1);
  EXPECT_EQ(s.exact_hits, 1);
  EXPECT_EQ(s.delta_hits, 1);
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.engines_cached, 2);
  EXPECT_GT(s.jobs_per_s, 0.0);
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_GT(s.uptime_s, 0.0);

  // The wire form of the same snapshot parses and agrees.
  Request stats_req;
  stats_req.op = Request::Op::stats;
  const auto frames = submit(ts.server, stats_req);
  ASSERT_EQ(frames.size(), 1u);
  JsonValue wire = parse_frame(frames[0]);
  EXPECT_EQ(wire.get_number("jobs_completed"), 5.0);
  EXPECT_EQ(wire.get_number("parses"), 2.0);
  EXPECT_EQ(wire.get_number("result_hits"), 1.0);
}

// --- sweep jobs --------------------------------------------------------------

// MC divider: two netlist-declared distributions and one yield bound. Every
// point is a cheap .op, so an 8-draw batch finishes in milliseconds.
const char* kMcNetlist = R"(* mc divider
V1 in 0 {vd}
R1 in out {r}
R2 out 0 1000
.param r dist=normal(1k,50)
.param vd dist=uniform(4.5,5.5)
.measure vout op:out min=2.2 max=2.8
.op
.end
)";

Request sweep_request(std::string netlist, int mc, const std::string& seed) {
  Request req;
  req.op = Request::Op::sweep;
  req.netlist = std::move(netlist);
  req.mc = mc;
  req.seed = seed;
  return req;
}

TEST(Server, SweepJobMatchesLocalEngineByteForByte) {
  TestServer ts(small_server("sweep"));
  ASSERT_TRUE(ts.started);

  const Request req = sweep_request(kMcNetlist, 8, "42");
  const auto frames = submit(ts.server, req);

  // Frame sequence is pinned: status -> sweep_stats -> done (no error).
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "status");
  EXPECT_EQ(parse_frame(frames[1]).get_string("frame"), "sweep_stats");
  EXPECT_EQ(parse_frame(frames[2]).get_string("frame"), "done");
  auto done = find_frame(frames, "done");
  EXPECT_TRUE(done->get_bool("ok"));
  EXPECT_EQ(done->get_number("exit_code"), 0.0);

  // Payload shape: the distilled StatsRun fields clients key on.
  JsonValue stats = parse_frame(frames[1]);
  EXPECT_EQ(stats.get_number("points"), 8.0);
  EXPECT_EQ(stats.get_number("ran"), 8.0);
  EXPECT_EQ(stats.get_number("ok"), 8.0);
  const JsonValue* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  ASSERT_FALSE(metrics->items().empty());
  const JsonValue& m0 = metrics->items()[0];
  for (const char* key : {"name", "n", "mean", "stddev", "min", "max", "q"})
    EXPECT_NE(m0.find(key), nullptr) << key;
  const JsonValue* measures = stats.find("measures");
  ASSERT_NE(measures, nullptr);
  ASSERT_EQ(measures->items().size(), 1u);
  EXPECT_EQ(measures->items()[0].items()[0].as_string(), "vout");

  // The frame must be byte-identical to what the library computes locally
  // from the same netlist + seed: the server adds transport, not statistics.
  const auto dists = spice::parse_param_dists(kMcNetlist);
  spice::StatsRun local;
  local.seed_text = "42";
  local.mc = 8;
  local.measures = spice::parse_measures(kMcNetlist);
  const auto grid = spice::mc_grid({}, dists, {42, 8});
  local.total_points = static_cast<long>(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    spice::SweepOutcome out =
        api::run_sweep_point(kMcNetlist, grid[i], "", {}, 0);
    local.add_outcome(static_cast<long>(i), grid[i], out);
  }
  EXPECT_EQ(frames[1], sweep_stats_frame(local));

  // Determinism on the wire: a repeat submission streams the same bytes.
  const auto again = submit(ts.server, req);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[1], frames[1]);
}

TEST(Server, SweepSpecsComposeWithAndOverrideNetlistParams) {
  TestServer ts(small_server("sweepspec"));
  ASSERT_TRUE(ts.started);

  // A CLI axis multiplies the grid; a CLI dist overrides the netlist card.
  Request req = sweep_request(kMcNetlist, 2, "7");
  req.sweep_specs = {"load=500,1000,2000", "r=normal(1000,1)"};
  // {load} must appear in the text for the axis to matter; reuse R2's value.
  req.netlist = R"(* mc divider
V1 in 0 {vd}
R1 in out {r}
R2 out 0 {load}
.param r dist=normal(1k,50)
.param vd dist=uniform(4.5,5.5)
.measure vout op:out min=1.0 max=4.0
.op
.end
)";
  const auto frames = submit(ts.server, req);
  auto stats = find_frame(frames, "sweep_stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->get_number("points"), 6.0);  // 3 axis values x 2 draws
  EXPECT_EQ(stats->get_number("ran"), 6.0);
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->get_bool("ok"));
}

TEST(Server, SweepBadSpecAndBadSeedAreExitTwo) {
  TestServer ts(small_server("sweepbad"));
  ASSERT_TRUE(ts.started);

  Request bad_spec = sweep_request(kMcNetlist, 2, "0");
  bad_spec.sweep_specs = {"r=cauchy(0,1)"};  // unknown distribution
  auto frames = submit(ts.server, bad_spec);
  auto error = find_frame(frames, "error");
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->get_number("code"), 2.0);
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->get_number("exit_code"), 2.0);

  Request bad_seed = sweep_request(kMcNetlist, 2, "not-a-number");
  auto done2 = find_frame(submit(ts.server, bad_seed), "done");
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ(done2->get_number("exit_code"), 2.0);

  // The server plans with usim's rules, so each rejection carries the text
  // `usim` prints after "error: ".
  const auto expect_rejected = [&](const Request& req, const std::string& message) {
    const auto frames = submit(ts.server, req);
    const auto err = find_frame(frames, "error");
    ASSERT_TRUE(err.has_value()) << message;
    EXPECT_EQ(err->get_number("code"), 2.0) << message;
    EXPECT_EQ(err->get_string("kind"), "bad-request") << message;
    EXPECT_EQ(err->get_string("message"), message);
    const auto end = find_frame(frames, "done");
    ASSERT_TRUE(end.has_value()) << message;
    EXPECT_EQ(end->get_number("exit_code"), 2.0) << message;
    EXPECT_FALSE(find_frame(frames, "sweep_stats").has_value()) << message;
  };
  // Signed, padded and overflowing seeds: strtoull would read the first
  // three as 2^64-1, 7 and 7, and clamp the last to 2^64-1.
  for (const std::string seed : {"-1", "+7", " 7", "99999999999999999999999"})
    expect_rejected(sweep_request(kMcNetlist, 2, seed),
                    "bad seed '" + seed +
                        "' (want decimal digits, at most 18446744073709551615)");

  // A sweep name that is an .array placeholder would rewrite {i} before the
  // parser expands the array.
  Request array_i = sweep_request("* array\nV1 n0 0 1\n.array 2 R{i} n{i} 0 1k\n.op\n.end\n",
                                  1, "0");
  array_i.sweep_specs = {"i=5,6"};
  expect_rejected(array_i,
                  "sweep parameter 'i' collides with .array {i} placeholders; "
                  "pick another name");

  // Only the server caps a job's size, on the plan's exact point count.
  Request huge = sweep_request(kMcNetlist, 2, "0");
  huge.sweep_specs = {"load=0:1:1000000"};
  expect_rejected(huge, "sweep grid too large (2000000 points; server cap 1000000)");
}

TEST(Server, SweepDeadlineExpiryIsExitThree) {
  TestServer ts(small_server("sweepddl"));
  ASSERT_TRUE(ts.started);

  // Four slow (~0.8 s) points against a 50 ms whole-job budget: the
  // monitor's cancel must stop the batch at the next solver poll.
  Request req = sweep_request(slow_netlist(), 4, "0");
  req.timeout_ms = 50.0;
  const auto frames = submit(ts.server, req);
  auto done = find_frame(frames, "done");
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->get_bool("ok"));
  EXPECT_EQ(done->get_number("exit_code"), 3.0);
  EXPECT_TRUE(wait_for_stats(
      ts.server, [](const StatsSnapshot& s) { return s.jobs_cancelled == 1; }));
}

TEST(Server, SweepJobsShareBusyRejection) {
  ServerOptions opts = small_server("sweepbusy");
  opts.workers = 1;
  opts.queue_capacity = 1;
  TestServer ts(std::move(opts));
  ASSERT_TRUE(ts.started);

  const std::string slow = slow_netlist();

  // Occupy the worker, fill the queue (as in QueueSaturationGetsBusyFrame).
  UnixConn a = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(a.write_all(build_request(run_request(slow)) + "\n"));
  std::string line;
  ASSERT_TRUE(a.read_line(line, 30000));
  ASSERT_TRUE(wait_for_stats(ts.server,
                             [](const StatsSnapshot& s) { return s.queue_depth == 0; }));
  UnixConn b = UnixConn::connect_to(ts.server.socket_path());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(b.write_all(build_request(run_request(slow)) + "\n"));
  ASSERT_TRUE(wait_for_stats(ts.server,
                             [](const StatsSnapshot& s) { return s.queue_depth == 1; }));

  // A sweep submission takes the same admission path -> structured busy.
  const auto frames = submit(ts.server, sweep_request(kMcNetlist, 4, "1"));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(parse_frame(frames[0]).get_string("frame"), "busy");
}

}  // namespace
}  // namespace usys::server
