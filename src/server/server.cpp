#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/json.hpp"
#include "common/socket.hpp"
#include "server/protocol.hpp"

namespace usys::server {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const char* kind_name(spice::AnalysisCard::Kind kind) {
  switch (kind) {
    case spice::AnalysisCard::Kind::op: return "op";
    case spice::AnalysisCard::Kind::tran: return "tran";
    case spice::AnalysisCard::Kind::ac: return "ac";
  }
  return "op";
}

/// One submitted job. The connection lives here so the worker can stream to
/// it and the monitor can watch it for hangup.
struct Job {
  long id = 0;
  UnixConn conn;
  Request req;
  CancelToken cancel;
  Clock::time_point enqueued = Clock::now();
};

/// Result-cache key: everything that can change the rendered frames.
std::string result_key(const Request& req, const std::string& hash) {
  std::string key = hash;
  for (const auto& spec : req.set_specs) {
    key += '|';
    key += spec;
  }
  return key;
}

struct CachedResult {
  std::vector<std::string> frames;  ///< series/rows/end_series/error lines
  bool ok = false;
  int exit_code = 0;
};

struct EngineEntry {
  std::unique_ptr<api::Session> session;
  std::mutex run_mu;  ///< one job at a time per session
};

}  // namespace

std::string StatsSnapshot::to_json() const {
  std::string out = "{\"v\":1,\"frame\":\"stats\"";
  const auto num = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    json_append_double(out, v);
  };
  num("jobs_submitted", static_cast<double>(jobs_submitted));
  num("jobs_completed", static_cast<double>(jobs_completed));
  num("jobs_ok", static_cast<double>(jobs_ok));
  num("jobs_failed", static_cast<double>(jobs_failed));
  num("jobs_cancelled", static_cast<double>(jobs_cancelled));
  num("busy_rejected", static_cast<double>(busy_rejected));
  num("bad_requests", static_cast<double>(bad_requests));
  num("parses", static_cast<double>(parses));
  num("exact_hits", static_cast<double>(exact_hits));
  num("delta_hits", static_cast<double>(delta_hits));
  num("result_hits", static_cast<double>(result_hits));
  num("evictions", static_cast<double>(evictions));
  num("cooled", static_cast<double>(cooled));
  num("symbolic_factorizations", static_cast<double>(symbolic_factorizations));
  num("queue_depth", queue_depth);
  num("engines_cached", engines_cached);
  num("engines_warm", engines_warm);
  num("uptime_s", uptime_s);
  num("jobs_per_s", jobs_per_s);
  num("latency_p50_ms", latency_p50_ms);
  num("latency_p99_ms", latency_p99_ms);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// SimServer::Impl
// ---------------------------------------------------------------------------

struct SimServer::Impl {
  explicit Impl(ServerOptions o) : opts(std::move(o)) {
    opts.workers = std::max(1, opts.workers);
    opts.queue_capacity = std::max(1, opts.queue_capacity);
    opts.engine_cache_capacity = std::max(1, opts.engine_cache_capacity);
    opts.result_cache_capacity = std::max(0, opts.result_cache_capacity);
  }

  ServerOptions opts;
  UnixListener listener;
  bool started = false;

  std::mutex mu;  ///< guards queue, active, stopping, stats, caches' LRU
  std::condition_variable cv;
  bool stopping = false;
  std::deque<std::shared_ptr<Job>> queue;
  std::vector<std::shared_ptr<Job>> active;
  long next_job_id = 1;

  // Engine cache: hash -> entry, plus MRU-first recency list. Entries past
  // the warm capacity are cooled (engine rebind(): solver state shed); past
  // 2x they are evicted outright.
  std::unordered_map<std::string, std::shared_ptr<EngineEntry>> engines;
  std::list<std::string> engine_lru;  ///< front = most recently used

  // Result cache (rendered frames), same LRU scheme, own capacity.
  std::unordered_map<std::string, std::shared_ptr<const CachedResult>> results;
  std::list<std::string> result_lru;

  StatsSnapshot counters;  ///< the monotonic counters (guarded by mu)
  std::vector<double> latency_ring;
  std::size_t latency_pos = 0;
  Clock::time_point started_at = Clock::now();

  std::thread accept_thread;
  std::thread monitor_thread;
  std::vector<std::thread> workers;

  // --- lifecycle -----------------------------------------------------------

  void accept_loop() {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) return;
      }
      UnixConn conn = listener.accept_conn(200);
      if (!conn.valid()) continue;
      handle_connection(std::move(conn));
    }
  }

  void handle_connection(UnixConn conn) {
    std::string line;
    const auto read = conn.read_bounded_line(line, opts.accept_timeout_ms, kMaxRequestBytes);
    if (read == UnixConn::ReadStatus::too_large) {
      conn.write_all(error_frame(2, "too-large", "request exceeds " +
                                                     std::to_string(kMaxRequestBytes) +
                                                     " bytes") +
                     "\n");
      std::lock_guard<std::mutex> lock(mu);
      ++counters.bad_requests;
      return;
    }
    if (read != UnixConn::ReadStatus::ok) return;  // gone, or no line within the timeout
    Request req;
    std::string error;
    if (!parse_request(line, req, error)) {
      conn.write_all(error_frame(2, "bad-request", error) + "\n");
      std::lock_guard<std::mutex> lock(mu);
      ++counters.bad_requests;
      return;
    }
    switch (req.op) {
      case Request::Op::ping:
        conn.write_all(pong_frame() + "\n");
        return;
      case Request::Op::stats:
        conn.write_all(snapshot().to_json() + "\n");
        return;
      case Request::Op::shutdown: {
        conn.write_all(bye_frame() + "\n");
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
        cv.notify_all();
        return;
      }
      case Request::Op::run:
      case Request::Op::sweep:
        break;
    }
    auto job = std::make_shared<Job>();
    job->conn = std::move(conn);
    job->req = std::move(req);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (static_cast<int>(queue.size()) >= opts.queue_capacity) {
        ++counters.busy_rejected;
        job->conn.write_all(
            busy_frame(static_cast<int>(queue.size()), opts.queue_capacity) + "\n");
        return;  // conn closes with the job
      }
      job->id = next_job_id++;
      ++counters.jobs_submitted;
      queue.push_back(job);
      cv.notify_all();
    }
  }

  void worker_loop() {
    while (true) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping) return;
        job = queue.front();
        queue.pop_front();
        active.push_back(job);
      }
      execute(*job);
      std::lock_guard<std::mutex> lock(mu);
      active.erase(std::remove(active.begin(), active.end(), job), active.end());
    }
  }

  /// Fires CancelTokens from outside the solver: client hangup (queued or
  /// streaming) and per-job wall deadlines, polled every 20 ms.
  void monitor_loop() {
    while (true) {
      std::vector<std::shared_ptr<Job>> watch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, std::chrono::milliseconds(20), [&] { return stopping; });
        if (stopping) return;
        watch.assign(queue.begin(), queue.end());
        watch.insert(watch.end(), active.begin(), active.end());
      }
      for (const auto& job : watch) {
        if (job->cancel.cancelled()) continue;
        if (job->conn.peer_hung_up()) {
          job->cancel.cancel();
          continue;
        }
        if (job->req.timeout_ms > 0.0 && ms_since(job->enqueued) > job->req.timeout_ms)
          job->cancel.cancel();
      }
    }
  }

  // --- caches --------------------------------------------------------------

  void touch_engine(const std::string& hash) {
    engine_lru.remove(hash);
    engine_lru.push_front(hash);
  }

  /// Two-tier eviction, called with `mu` held after an insert. Only idle
  /// sessions (run_mu free) are demoted/evicted; busy ones are skipped and
  /// caught on a later pass.
  void evict_engines() {
    const int warm_cap = opts.engine_cache_capacity;
    const int total_cap = 2 * warm_cap;
    int rank = 0;
    for (auto it = engine_lru.begin(); it != engine_lru.end();) {
      ++rank;
      const std::string& hash = *it;
      const auto eit = engines.find(hash);
      if (eit == engines.end()) {
        it = engine_lru.erase(it);
        continue;
      }
      if (rank <= warm_cap) {
        ++it;
        continue;
      }
      std::shared_ptr<EngineEntry> entry = eit->second;
      if (!entry->run_mu.try_lock()) {
        ++it;  // a job is on it right now; revisit next insert
        continue;
      }
      if (rank <= total_cap) {
        if (entry->session->warm()) {
          entry->session->engine().rebind();
          ++counters.cooled;
        }
        entry->run_mu.unlock();
        ++it;
      } else {
        entry->run_mu.unlock();
        engines.erase(eit);
        it = engine_lru.erase(it);
        ++counters.evictions;
      }
    }
  }

  void remember_result(const std::string& key, std::shared_ptr<const CachedResult> r) {
    if (opts.result_cache_capacity <= 0) return;
    std::lock_guard<std::mutex> lock(mu);
    if (results.count(key) == 0) result_lru.push_front(key);
    results[key] = std::move(r);
    while (static_cast<int>(result_lru.size()) > opts.result_cache_capacity) {
      results.erase(result_lru.back());
      result_lru.pop_back();
    }
  }

  // --- job execution -------------------------------------------------------

  int queue_depth() {
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int>(queue.size());
  }

  void finish(Job& job, bool ok, int exit_code, const FailureInfo& failure) {
    std::lock_guard<std::mutex> lock(mu);
    ++counters.jobs_completed;
    if (ok) {
      ++counters.jobs_ok;
    } else if (failure.kind == FailureKind::cancelled ||
               failure.kind == FailureKind::timeout) {
      ++counters.jobs_cancelled;
    } else {
      ++counters.jobs_failed;
    }
    (void)exit_code;
    const double latency = ms_since(job.enqueued);
    constexpr std::size_t kRing = 512;
    if (latency_ring.size() < kRing) {
      latency_ring.push_back(latency);
    } else {
      latency_ring[latency_pos] = latency;
      latency_pos = (latency_pos + 1) % kRing;
    }
  }

  /// A sweep job: api::plan_sweep applies the rules usim applies too, this
  /// adds only the point cap, then api::run_sweep runs the grid on one
  /// sweep worker and one sweep_stats frame carries the result. Value-only
  /// netlists run as overrides on that worker's warm session; the engine
  /// and result caches are not used. The job-level deadline and hangup
  /// cancellation ride the same monitor/token path as run jobs (each point
  /// polls the token through its JobOptions).
  void execute_sweep(Job& job) {
    const auto write = [&job](const std::string& line) {
      return job.conn.write_all(line + "\n");
    };
    const Request& req = job.req;
    const auto reject = [&](const std::string& message) {
      const auto failure = make_failure(FailureKind::internal_error, "sweep", message);
      write(error_frame(2, "bad-request", message));
      write(done_frame(false, 2, false, false, false, 0, ms_since(job.enqueued),
                       "none"));
      finish(job, false, 2, failure);
    };

    api::SweepPlan plan;
    std::string why;
    if (!api::plan_sweep({req.netlist, req.sweep_specs, req.mc, req.seed, req.hdl_mode},
                         plan, why)) {
      reject(why);
      return;
    }
    // Size preflight before materializing anything: one request must not be
    // able to balloon the daemon.
    constexpr std::size_t kMaxServerSweepPoints = 1'000'000;
    if (plan.point_count() > kMaxServerSweepPoints) {
      reject("sweep grid too large (" + std::to_string(plan.point_count()) +
             " points; server cap " + std::to_string(kMaxServerSweepPoints) + ")");
      return;
    }

    write(status_frame(job.id, api::content_hash(req.netlist, req.hdl_mode), "none",
                       queue_depth()));

    api::JobOptions popts;
    popts.cancel = &job.cancel;
    // One sweep worker per job: the server's job workers are its parallelism.
    const api::SweepRun run = api::run_sweep(plan, 1, {}, popts);

    if (job.cancel.cancelled()) {
      const auto failure =
          make_failure(FailureKind::cancelled, "sweep",
                       "sweep cancelled (client disconnected or deadline expired)");
      write(error_frame(3, to_string(failure.kind), failure.to_string()));
      write(done_frame(false, 3, true, false, false, 0, ms_since(job.enqueued),
                       "none"));
      finish(job, false, 3, failure);
      return;
    }

    long failures = 0;
    FailureInfo first_failure;
    for (const auto& outcome : run.outcomes) {
      if (!outcome.ok && !outcome.skipped) {
        if (failures == 0) first_failure = outcome.failure;
        ++failures;
      }
    }
    write(sweep_stats_frame(run.stats));
    const bool ok = failures == 0;
    const int exit_code = ok ? 0 : 1;
    if (!ok)
      write(error_frame(exit_code, to_string(first_failure.kind),
                        std::to_string(failures) + " of " +
                            std::to_string(run.grid.size()) + " points failed"));
    write(done_frame(ok, exit_code, true, true, false, 0, ms_since(job.enqueued),
                     "none"));
    finish(job, ok, exit_code, ok ? FailureInfo{} : first_failure);
  }

  void execute(Job& job) {
    const auto write = [&job](const std::string& line) {
      return job.conn.write_all(line + "\n");
    };

    if (job.cancel.cancelled()) {  // died while queued (hangup or deadline)
      const auto failure = make_failure(
          FailureKind::cancelled, "job",
          "cancelled before execution (client disconnected or deadline expired)");
      write(error_frame(3, to_string(failure.kind), failure.to_string()));
      write(done_frame(false, 3, false, false, false, 0, ms_since(job.enqueued),
                       "none"));
      finish(job, false, 3, failure);
      return;
    }

    if (job.req.op == Request::Op::sweep) {
      execute_sweep(job);
      return;
    }

    const Request& req = job.req;
    const std::string hash = api::content_hash(req.netlist, req.hdl_mode);
    const std::string rkey = result_key(req, hash);

    // Tier 1: rendered-result replay.
    if (!req.no_cache) {
      std::shared_ptr<const CachedResult> hit;
      {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = results.find(rkey);
        if (it != results.end()) {
          hit = it->second;
          result_lru.remove(rkey);
          result_lru.push_front(rkey);
          ++counters.result_hits;
        }
      }
      if (hit) {
        write(status_frame(job.id, hash, "result", queue_depth()));
        for (const auto& frame : hit->frames) {
          if (!write(frame)) break;
        }
        write(done_frame(hit->ok, hit->exit_code, false, false, false, 0,
                         ms_since(job.enqueued), "result"));
        finish(job, hit->ok, hit->exit_code, FailureInfo{});
        return;
      }
    }

    // Tier 2: warm-engine lookup / cold construction.
    std::shared_ptr<EngineEntry> entry;
    const char* label = "cold";
    {
      std::lock_guard<std::mutex> lock(mu);
      const auto it = engines.find(hash);
      if (it != engines.end()) {
        entry = it->second;
        touch_engine(hash);
        label = req.set_specs.empty() ? "warm" : "delta";
        if (req.set_specs.empty()) {
          ++counters.exact_hits;
        } else {
          ++counters.delta_hits;
        }
      }
    }
    if (!entry) {
      std::unique_ptr<api::Session> session;
      try {
        session = std::make_unique<api::Session>(req.netlist, req.hdl_mode);
      } catch (const spice::NetlistError& e) {
        const auto failure = make_failure(FailureKind::internal_error, "parse", e.what());
        write(error_frame(2, "netlist-error", e.what()));
        write(done_frame(false, 2, true, false, false, 0, ms_since(job.enqueued),
                         "none"));
        finish(job, false, 2, failure);
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      const auto it = engines.find(hash);
      if (it != engines.end()) {
        entry = it->second;  // a racing cold job won; use its session
        touch_engine(hash);
      } else {
        entry = std::make_shared<EngineEntry>();
        entry->session = std::move(session);
        engines.emplace(hash, entry);
        engine_lru.push_front(hash);
        ++counters.parses;
        evict_engines();
      }
    }

    // Build the facade request.
    api::JobRequest jr;
    for (const auto& spec : req.set_specs) {
      api::ParamOverride ov;
      if (!api::parse_override(spec, ov)) {
        const auto failure = make_failure(FailureKind::internal_error, "job",
                                          "malformed override '" + spec + "'");
        write(error_frame(2, "bad-request", failure.detail));
        write(done_frame(false, 2, false, false, false, 0, ms_since(job.enqueued),
                         label));
        finish(job, false, 2, failure);
        return;
      }
      jr.overrides.push_back(std::move(ov));
    }
    // The per-job wall deadline is enforced by the monitor through the
    // cancel token (it also covers queue wait); the solver polls the token
    // at its usual deadline sites.
    jr.options.cancel = &job.cancel;

    std::unique_lock<std::mutex> run_lock(entry->run_mu);
    write(status_frame(job.id, hash, label, queue_depth()));

    // Stream frames and capture them for the result cache in one pass.
    auto captured = std::make_shared<CachedResult>();
    bool write_ok = true;
    const auto emit = [&](std::string frame) {
      if (write_ok && !write(frame)) {
        write_ok = false;
        job.cancel.cancel();  // client gone: stop the solver at its next poll
      }
      captured->frames.push_back(std::move(frame));
    };

    constexpr std::size_t kRowsPerFrame = 64;
    api::JobResult result = entry->session->run(
        jr, [&](std::size_t index, const api::AnalysisOutcome& outcome) {
          if (!outcome.ok) return;  // reported via the error/done frames
          const api::SeriesView view =
              api::series_view(outcome, entry->session->circuit());
          emit(series_frame(index, kind_name(outcome.kind), view.columns));
          std::vector<std::vector<double>> batch;
          batch.reserve(std::min(view.rows, kRowsPerFrame));
          for (std::size_t k = 0; k < view.rows; ++k) {
            batch.push_back(view.row_at(k));
            if (batch.size() == kRowsPerFrame) {
              emit(rows_frame(index, batch));
              batch.clear();
            }
          }
          if (!batch.empty()) emit(rows_frame(index, batch));
          emit(end_series_frame(index, view.rows));
        });
    if (!result.ok) {
      emit(error_frame(result.exit_code, to_string(result.failure.kind), result.error));
    }
    write(done_frame(result.ok, result.exit_code, result.parsed, result.bound,
                     result.rebound, result.symbolic_factorizations,
                     ms_since(job.enqueued), label));
    run_lock.unlock();

    if (result.ok && !req.no_cache && write_ok && !job.cancel.cancelled()) {
      captured->ok = result.ok;
      captured->exit_code = result.exit_code;
      remember_result(rkey, std::move(captured));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      counters.symbolic_factorizations += result.symbolic_factorizations;
    }
    finish(job, result.ok, result.exit_code, result.failure);
  }

  // --- stats ---------------------------------------------------------------

  StatsSnapshot snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    StatsSnapshot s = counters;
    s.queue_depth = static_cast<int>(queue.size());
    s.engines_cached = static_cast<int>(engines.size());
    s.engines_warm = 0;
    for (const auto& [hash, entry] : engines) {
      (void)hash;
      // A busy entry is running a job, so it is warm; reading its session
      // would race the worker (the same try_lock rule as evict_engines).
      if (!entry->run_mu.try_lock()) {
        ++s.engines_warm;
        continue;
      }
      if (entry->session->warm()) ++s.engines_warm;
      entry->run_mu.unlock();
    }
    s.uptime_s = ms_since(started_at) / 1000.0;
    s.jobs_per_s = s.uptime_s > 0.0 ? s.jobs_completed / s.uptime_s : 0.0;
    if (!latency_ring.empty()) {
      std::vector<double> sorted = latency_ring;
      std::sort(sorted.begin(), sorted.end());
      const auto at_quantile = [&sorted](double q) {
        const std::size_t i = static_cast<std::size_t>(q * (sorted.size() - 1));
        return sorted[i];
      };
      s.latency_p50_ms = at_quantile(0.50);
      s.latency_p99_ms = at_quantile(0.99);
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// SimServer
// ---------------------------------------------------------------------------

SimServer::SimServer(ServerOptions opts) : impl_(std::make_unique<Impl>(std::move(opts))) {}

SimServer::~SimServer() { stop(); }

bool SimServer::start(std::string* error) {
  if (impl_->started) return true;
  if (!impl_->listener.listen_on(impl_->opts.socket_path, error)) return false;
  impl_->started = true;
  impl_->started_at = Clock::now();
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  impl_->monitor_thread = std::thread([this] { impl_->monitor_loop(); });
  impl_->workers.reserve(static_cast<std::size_t>(impl_->opts.workers));
  for (int i = 0; i < impl_->opts.workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  return true;
}

void SimServer::wait() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->cv.wait(lock, [&] { return impl_->stopping; });
}

void SimServer::stop() {
  if (!impl_->started) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
    impl_->cv.notify_all();
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  if (impl_->monitor_thread.joinable()) impl_->monitor_thread.join();
  for (auto& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  impl_->workers.clear();
  // Jobs still queued never ran: tell their clients instead of hanging them.
  std::deque<std::shared_ptr<Job>> leftovers;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    leftovers.swap(impl_->queue);
  }
  for (const auto& job : leftovers) {
    job->conn.write_all(error_frame(3, "cancelled", "server shutting down") + "\n");
    job->conn.write_all(
        done_frame(false, 3, false, false, false, 0, ms_since(job->enqueued), "none") +
        "\n");
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->counters.jobs_completed;
    ++impl_->counters.jobs_cancelled;
  }
  impl_->listener.close();
  impl_->started = false;
}

const std::string& SimServer::socket_path() const { return impl_->opts.socket_path; }

StatsSnapshot SimServer::stats() const { return impl_->snapshot(); }

int serve_blocking(const ServerOptions& opts) {
  SimServer server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  std::cout << "usim server listening on " << opts.socket_path << " ("
            << opts.workers << " workers, queue " << opts.queue_capacity
            << ", engine cache " << opts.engine_cache_capacity << ")\n"
            << std::flush;
  server.wait();
  const StatsSnapshot s = server.stats();
  server.stop();
  std::cout << "usim server shut down: " << s.jobs_completed << " jobs ("
            << s.jobs_ok << " ok, " << s.jobs_failed << " failed, "
            << s.jobs_cancelled << " cancelled), " << s.parses << " parses, "
            << s.exact_hits + s.delta_hits << " engine hits, " << s.result_hits
            << " result hits\n";
  return 0;
}

}  // namespace usys::server
