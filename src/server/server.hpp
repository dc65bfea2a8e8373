// SimServer — the `usim --serve` daemon (docs/server.md).
//
// A long-lived process that accepts simulation jobs as line-delimited JSON
// over a local Unix socket and amortizes everything amortizable across
// requests (ROADMAP item 1, the "millions of users" architecture gap):
//
//   * warm-engine LRU cache keyed by netlist content hash: an exact-hash
//     hit reuses the bound api::Session (skipping parse / bind / pattern
//     compile / symbolic factorization); a hit with parameter overrides
//     takes the rebind() delta path instead of a fresh bind. Eviction is
//     two-tier: entries pushed past the warm capacity are cooled first
//     (engine cool(): solver state shed, parse/bind kept), then fully
//     evicted at 2x.
//   * result LRU cache of rendered frames: a byte-identical request replays
//     the stream without touching the engine at all — trivially
//     bit-identical, and where the big warm-vs-cold ratio comes from on
//     analysis-dominated workloads (bench_server_throughput).
//   * bounded job queue with structured busy rejection (never a hang),
//     N worker threads, and a monitor that cancels jobs via their
//     CancelToken when the client disconnects mid-stream or the per-job
//     deadline expires — the PR 6 plumbing, fired from outside the solver.
//   * /stats: jobs/s, cache hit rates, queue depth, p50/p99 latency.
#pragma once

#include <memory>
#include <string>

namespace usys::server {

struct ServerOptions {
  std::string socket_path;
  int workers = 2;               ///< job worker threads (>= 1)
  int queue_capacity = 16;       ///< queued (not yet running) jobs before busy
  int engine_cache_capacity = 8; ///< warm sessions; up to 2x kept cooled
  int result_cache_capacity = 32;
  int accept_timeout_ms = 2000;  ///< budget for a client to send its request
};

/// Point-in-time statistics (also serialized as the stats frame).
struct StatsSnapshot {
  long jobs_submitted = 0;
  long jobs_completed = 0;
  long jobs_ok = 0;
  long jobs_failed = 0;
  long jobs_cancelled = 0;
  long busy_rejected = 0;
  long bad_requests = 0;
  long parses = 0;        ///< cold jobs: fresh Session (parse + bind)
  long exact_hits = 0;    ///< engine-cache hits, no overrides
  long delta_hits = 0;    ///< engine-cache hits via the rebind() delta path
  long result_hits = 0;   ///< replayed from the result cache
  long evictions = 0;     ///< sessions fully dropped from the engine cache
  long cooled = 0;        ///< sessions demoted to the cool tier
  long symbolic_factorizations = 0;  ///< summed over all executed jobs
  int queue_depth = 0;
  int engines_cached = 0;
  int engines_warm = 0;
  double uptime_s = 0.0;
  double jobs_per_s = 0.0;
  double latency_p50_ms = 0.0;  ///< over the last <= 512 completed jobs
  double latency_p99_ms = 0.0;

  /// The `{"v":1,"frame":"stats",...}` wire line.
  std::string to_json() const;
};

class SimServer {
 public:
  explicit SimServer(ServerOptions opts);
  ~SimServer();

  SimServer(const SimServer&) = delete;
  SimServer& operator=(const SimServer&) = delete;

  /// Binds the socket and launches the accept/worker/monitor threads.
  /// False (with `error` filled) when the socket cannot be bound.
  bool start(std::string* error = nullptr);

  /// Blocks until a shutdown request arrives (or stop() is called).
  void wait();

  /// Stops accepting, cancels queued jobs, joins all threads, unlinks the
  /// socket. Idempotent; also runs on destruction.
  void stop();

  const std::string& socket_path() const;
  StatsSnapshot stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience for `usim --serve`: start, announce on stdout, block until a
/// shutdown request. Returns a usim exit code (0, or 2 when binding fails).
int serve_blocking(const ServerOptions& opts);

}  // namespace usys::server
