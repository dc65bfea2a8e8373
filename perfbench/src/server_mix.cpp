// server_mix — an in-process SimServer (2 workers, a 2-entry warm engine
// cache) driven over its Unix socket by 2 closed-loop clients. The seeded
// request stream mixes parameter-override jobs on cached engines (the
// delta tier), byte-identical repeats (the replay tier) and never-seen
// netlist texts (cold jobs, which push engines out of the cache) on two
// circuits: the mc_sweep transducer resonator and a TRANSARRAY n=200 .op.
// The one workload where writes to the caches run beside reads from them.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>

#include "common/socket.hpp"
#include "harness.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace usys;

namespace {

const char kResonator[] = R"(* server: Listing 1 transducer resonator
V1 drive 0 10 AC 1
XT drive 0 vel 0 HDLTRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
.op
.ac dec 5 10 10k
.end
)";

const char kArray200[] = R"(* server: TRANSARRAY n=200
V1 drive 0 1
Rb drive bus 10
Xarr bus 0 TRANSARRAY n=200 a=1e-8 d=2u m=1e-9 k=25 alpha=1e-4 dspread=0.1
.op
.end
)";

constexpr int kVariants = 8;

/// A circuit the stream draws from and the parameter its delta jobs set.
struct Base {
  const char* text;
  const char* param;
  double first;  ///< variant v sets first + step * v
  double step;
};
constexpr Base kBases[] = {{kResonator, "Xk.k", 150.0, 10.0}, {kArray200, "Rb.r", 5.0, 1.0}};
constexpr int kBaseCount = 2;

enum class Kind { delta, replay, cold };

struct Planned {
  Kind kind = Kind::delta;
  int base = 0;
  int variant = -1;  ///< delta jobs only
  long tag = 0;      ///< cold jobs: makes the text unique
};

/// Catalogue id of the reference a planned request must reproduce: the
/// base's plain run, or one of its override variants.
int reference_id(const Planned& p) { return p.base * (kVariants + 1) + p.variant + 1; }

std::string override_spec(int base, int variant) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g", kBases[base].param,
                kBases[base].first + kBases[base].step * variant);
  return buf;
}

/// 70% delta, 20% replay, 10% cold; three requests in four go to the
/// resonator. The two circuits' latencies form two clusters, and with an
/// even split the median request fell in the gap between them, so the
/// median jumped from run to run. At 3:1 it lands inside the resonator's
/// delta cluster.
std::vector<Planned> plan_stream(unsigned long long seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Planned> stream(count);
  for (std::size_t i = 0; i < count; ++i) {
    Planned& p = stream[i];
    const double r = u(rng);
    p.kind = r < 0.7 ? Kind::delta : r < 0.9 ? Kind::replay : Kind::cold;
    p.base = u(rng) < 0.75 ? 0 : 1;
    if (p.kind == Kind::delta) p.variant = static_cast<int>(rng() % kVariants);
    p.tag = static_cast<long>(i);
  }
  return stream;
}

server::Request make_request(const Planned& p, unsigned long long seed) {
  server::Request req;
  req.op = server::Request::Op::run;
  req.netlist = kBases[p.base].text;
  switch (p.kind) {
    case Kind::delta:
      req.set_specs.push_back(override_spec(p.base, p.variant));
      req.no_cache = true;  // always reach the engine cache
      break;
    case Kind::replay:
      break;
    case Kind::cold:
      req.netlist = "* cold " + std::to_string(seed) + "-" + std::to_string(p.tag) + "\n" +
                    req.netlist;
      req.no_cache = true;
      break;
  }
  return req;
}

const char* kind_name(spice::AnalysisCard::Kind kind) {
  switch (kind) {
    case spice::AnalysisCard::Kind::tran: return "tran";
    case spice::AnalysisCard::Kind::ac: return "ac";
    case spice::AnalysisCard::Kind::op: break;
  }
  return "op";
}

/// What a request must receive: the result frames (series / rows /
/// end_series) byte for byte, and the done frame up to its provenance
/// fields (ok and exit code; cache tier and elapsed time differ by design).
struct Expected {
  std::vector<std::string> frames;
  std::string done_prefix;
};

std::string done_prefix(const std::string& done) { return done.substr(0, done.find(",\"parsed\"")); }

/// Renders the frames of one request on a local api::Session, the way the
/// server streams them (64 rows per rows frame).
Expected local_reference(int base, int variant) {
  api::Session session(kBases[base].text);
  api::JobRequest jr;
  if (variant >= 0) {
    api::ParamOverride ov;
    api::parse_override(override_spec(base, variant), ov);
    jr.overrides.push_back(ov);
  }
  Expected e;
  constexpr std::size_t kRowsPerFrame = 64;
  const api::JobResult r =
      session.run(jr, [&](std::size_t index, const api::AnalysisOutcome& outcome) {
        if (!outcome.ok) return;
        const api::SeriesView view = api::series_view(outcome, session.circuit());
        e.frames.push_back(server::series_frame(index, kind_name(outcome.kind), view.columns));
        std::vector<std::vector<double>> batch;
        for (std::size_t k = 0; k < view.rows; ++k) {
          batch.push_back(view.row_at(k));
          if (batch.size() == kRowsPerFrame) {
            e.frames.push_back(server::rows_frame(index, batch));
            batch.clear();
          }
        }
        if (!batch.empty()) e.frames.push_back(server::rows_frame(index, batch));
        e.frames.push_back(server::end_series_frame(index, view.rows));
      });
  e.done_prefix = done_prefix(server::done_frame(r.ok, r.exit_code, false, false, false, 0,
                                                 0.0, "none"));
  return e;
}

bool has(const std::string& line, const char* needle) {
  return line.find(needle) != std::string::npos;
}

/// Cache tier codes carried on client.request spans: cold 0, warm 1,
/// delta 2, result 3 (-1 = no status frame).
int tier_of(const std::string& status) {
  static const char* const kTiers[] = {"\"cold\"", "\"warm\"", "\"delta\"", "\"result\""};
  for (int t = 0; t < 4; ++t)
    if (has(status, kTiers[t])) return t;
  return -1;
}

struct Outcome {
  bool ok = false;
  int tier = -1;
  std::string why;
};

Outcome submit(const std::string& socket_path, const server::Request& req,
               const Expected& expected) {
  Outcome out;
  UnixConn conn = UnixConn::connect_to(socket_path);
  if (!conn.valid() || !conn.write_all(server::build_request(req) + "\n")) {
    out.why = "cannot reach the server";
    return out;
  }
  std::vector<std::string> frames;
  std::string line;
  std::string done;
  while (conn.read_line(line, 30000)) {
    if (has(line, "\"frame\":\"status\"")) {
      out.tier = tier_of(line);
    } else if (has(line, "\"frame\":\"done\"")) {
      done = line;
    } else if (has(line, "\"frame\":\"busy\"")) {
      out.why = "busy";
      return out;
    } else {
      frames.push_back(line);
    }
  }
  if (done.empty()) {
    out.why = "no done frame";
  } else if (done_prefix(done) != expected.done_prefix) {
    out.why = "done frame differs from the local run: " + done;
  } else if (frames != expected.frames) {
    out.why = "result frames differ from the local api::Session run";
  } else {
    out.ok = true;
  }
  return out;
}

bool ping(const std::string& socket_path) {
  server::Request req;
  req.op = server::Request::Op::ping;
  UnixConn conn = UnixConn::connect_to(socket_path);
  std::string line;
  return conn.valid() && conn.write_all(server::build_request(req) + "\n") &&
         conn.read_line(line, 5000) && has(line, "\"frame\":\"pong\"");
}

server::ServerOptions server_options(const RunOptions& opts, int instance) {
  server::ServerOptions so;
  // Relative to the checkout root, so the socket stays inside it.
  so.socket_path = opts.out_dir + "/srv-" + std::to_string(::getpid()) + "-" +
                   std::to_string(instance) + ".sock";
  so.workers = 2;
  so.queue_capacity = 16;
  so.engine_cache_capacity = 2;
  so.result_cache_capacity = 32;
  return so;
}

}  // namespace

void run_server_mix(const RunOptions& opts, RunRecord& rec) {
  constexpr int kClients = 2;
  rec.threads = 2;
  rec.clients = kClients;

  // Set-up: SimServer::start() until the first ping is answered.
  for (int i = 0; i < 31; ++i) {
    server::SimServer srv(server_options(opts, i + 1));
    const auto t0 = Clock::now();
    std::string error;
    const bool ok = srv.start(&error) && ping(srv.socket_path());
    rec.setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    rec.op(ok, "server start / ping failed: " + error);
    srv.stop();
  }

  std::vector<Expected> expected;
  for (int b = 0; b < kBaseCount; ++b)
    for (int v = -1; v < kVariants; ++v) expected.push_back(local_reference(b, v));

  server::SimServer srv(server_options(opts, 0));
  std::string error;
  if (!srv.start(&error)) {
    rec.op(false, "server start failed: " + error);
    return;
  }
  const std::vector<Planned> stream = plan_stream(opts.seed, 1 << 18);
  std::atomic<std::size_t> next{0};
  long tier_counts[4] = {0, 0, 0, 0};

  // One phase of closed-loop traffic; returns its wall seconds. With
  // `cpu_ms`, every 50 ms of traffic appends the process CPU time (clients
  // and server) over the requests completed in it.
  const auto phase = [&](double seconds, std::vector<double>& latencies,
                         std::vector<double>* cpu_ms) {
    // Counts, not one Outcome per request: the log must not grow the
    // process's peak memory with the request rate.
    struct ClientLog {
      std::vector<double> ms;
      long answered = 0;
      long tiers[4] = {0, 0, 0, 0};
      std::vector<std::string> failures;  ///< why each failed request failed
    };
    std::vector<ClientLog> logs(kClients);
    std::atomic<long> completed{0};
    Stamp mark;
    const auto t0 = mark.wall;
    const auto until = t0 + std::chrono::duration<double>(seconds);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        try {
          do {
            const Planned& p = stream[next.fetch_add(1) % stream.size()];
            const server::Request req = make_request(p, opts.seed);
            Span span("client.request");
            const auto s0 = Clock::now();
            Outcome o = submit(srv.socket_path(), req,
                               expected[static_cast<std::size_t>(reference_id(p))]);
            log.ms.push_back(ms_between(s0, Clock::now()));
            completed.fetch_add(1);
            span.arg("tier", o.tier);
            ++log.answered;
            if (o.tier >= 0) ++log.tiers[o.tier];
            if (!o.ok) log.failures.push_back(std::move(o.why));
          } while (Clock::now() < until);
        } catch (const std::exception& e) {
          ++log.answered;
          log.failures.push_back(std::string("client: ") + e.what());
        }
      });
    }
    constexpr std::chrono::milliseconds kWindow{50};
    long completed_at_mark = 0;
    while (cpu_ms != nullptr && Clock::now() + kWindow < until) {
      std::this_thread::sleep_for(kWindow);
      const Stamp now;
      const long done = completed.load();
      if (done == completed_at_mark) continue;
      cpu_ms->push_back(1000.0 * (now.cpu_s - mark.cpu_s) /
                        static_cast<double>(done - completed_at_mark));
      mark = now;
      completed_at_mark = done;
    }
    for (auto& t : clients) t.join();
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    for (const ClientLog& log : logs) {
      latencies.insert(latencies.end(), log.ms.begin(), log.ms.end());
      rec.ops(log.answered - static_cast<long>(log.failures.size()), 0, "");
      for (const std::string& why : log.failures) rec.op(false, why);
      for (int t = 0; t < 4; ++t) tier_counts[t] += log.tiers[t];
    }
    return wall;
  };

  const server::StatsSnapshot before = srv.stats();
  const double phase_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  rec.wall_s = phase(phase_s, rec.job_ms, &rec.job_cpu_ms);
  if (opts.trace) {
    set_tracing(true);
    phase(phase_s, rec.traced_job_ms, nullptr);
    // The layers a cold job crosses inside the server, decomposed locally
    // on the same texts.
    for (int b = 0; b < kBaseCount; ++b) {
      for (int rep = 0; rep < 5; ++rep) {
        std::unique_ptr<DecomposedSession> s;
        api::JobResult r;
        long job_id = 0;
        {
          Span job("api.session_job");
          job_id = job.id();
          s = std::make_unique<DecomposedSession>(kBases[b].text);
          r = s->run();
        }
        rec.op(r.ok, "decomposed local job failed: " + r.error);
        if (rep == 0 && r.ok)
          probe_kernel(*s->net.circuit, r.analyses[0].op.x, 0.0, 0.0, "XT", job_id);
      }
    }
    set_tracing(false);
  }
  const server::StatsSnapshot after = srv.stats();
  srv.stop();

  const double completed = static_cast<double>(after.jobs_completed - before.jobs_completed);
  const double hits = static_cast<double>(
      (after.exact_hits - before.exact_hits) + (after.delta_hits - before.delta_hits) +
      (after.result_hits - before.result_hits));
  rec.value("server.hit_ratio", completed > 0 ? hits / completed : 0.0);
  rec.value("server.evictions", static_cast<double>(after.evictions - before.evictions));
  rec.value("server.busy_rejected",
            static_cast<double>(after.busy_rejected - before.busy_rejected));
  rec.value("server.server_p50_ms", after.latency_p50_ms);
  // Warm hits (a replay text first seen while its engine is cached) are a
  // fraction of a percent of this mix: they count in the base, not alone.
  const double tiered = static_cast<double>(tier_counts[0] + tier_counts[1] + tier_counts[2] +
                                            tier_counts[3]);
  const char* const kShareNames[] = {"server.share_cold", nullptr, "server.share_delta",
                                     "server.share_replay"};
  for (int t = 0; t < 4; ++t)
    if (kShareNames[t] != nullptr)
      rec.value(kShareNames[t], tiered > 0 ? static_cast<double>(tier_counts[t]) / tiered : 0.0);
}

}  // namespace perfbench
