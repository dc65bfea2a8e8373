// mc_sweep — a 1000-point Monte Carlo tolerance batch: the Listing 1 HDL
// transducer with drawn gap, spring constant and drive, each point an .op +
// a short .ac through SweepRunner + api::run_sweep_point on nproc workers,
// distilled with StatsRun. The one workload where Session set-up is about
// half of every unit of work, and the one that runs the pool at full width.
#include <thread>

#include "harness.hpp"
#include "spice/stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace usys;

namespace {

const char kMc[] = R"(* MC: Listing 1 transducer with drawn gap, spring and drive
.param gap dist=normal(0.15m,3u)
.param k dist=normal(200,10)
.param vd dist=uniform(5,15)
V1 drive 0 {vd} AC 1
XT drive 0 vel 0 HDLTRANSV a=1e-4 d={gap} er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k={k}
Xd vel 0 DAMPER alpha=40m
.op
.ac dec 5 10 10k
.end
)";

constexpr int kPoints = 1000;

struct Batch {
  std::string jsonl;
  long failed_points = 0;
};

/// One batch: grid construction, the sweep, and the stats distillation.
Batch run_batch(unsigned long long seed, int threads) {
  Span batch_span("sweep.batch");
  std::vector<spice::SweepPoint> grid;
  {
    Span span("stats.grid");
    grid = spice::mc_grid({}, spice::parse_param_dists(kMc), {seed, kPoints});
  }
  std::vector<spice::SweepOutcome> results;
  {
    Span run_span("sweep.run");
    const long parent = run_span.id();
    spice::SweepRunner runner(threads);
    results = runner.run(grid, [parent](const spice::SweepPoint& p) {
      Span span("api.run_sweep_point", parent);
      return api::run_sweep_point(kMc, p, "", api::JobOptions{}, 0);
    });
  }
  Span span("stats.distill");
  spice::StatsRun stats;
  stats.seed_text = std::to_string(seed);
  stats.total_points = kPoints;
  stats.mc = kPoints;
  Batch out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    stats.add_outcome(static_cast<long>(i), grid[i], results[i]);
    if (!results[i].ok) ++out.failed_points;
  }
  out.jsonl = stats.to_jsonl();
  return out;
}

}  // namespace

void run_mc_sweep(const RunOptions& opts, RunRecord& rec) {
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  rec.threads = threads;
  const auto grid = spice::mc_grid({}, spice::parse_param_dists(kMc), {opts.seed, kPoints});
  const std::string first_point = api::substitute_params(kMc, grid[0]);

  // The reference every batch must reproduce byte for byte: one worker.
  const Batch serial = run_batch(opts.seed, 1);
  rec.op(serial.failed_points == 0, "1-worker reference batch has failed points");

  const auto batch_job = [&](bool traced) {
    const Stamp t0;
    const Batch b = run_batch(opts.seed, threads);
    if (traced)
      rec.traced_job_ms.push_back(ms_between(t0.wall, Clock::now()));
    else
      rec.job_done(t0);
    rec.ops(kPoints, b.failed_points, "sweep point failed");
    rec.op(b.jsonl == serial.jsonl, "stats JSONL differs from the 1-worker batch");
  };
  const double phase_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  rec.wall_s = run_for_with_setup(
      phase_s, rec.setup_s, [&] { api::Session s(first_point); }, [&] { batch_job(false); });
  if (!opts.trace) return;

  set_tracing(true);
  std::size_t next_sample = 0;
  run_for(phase_s, [&] {
    batch_job(true);
    // Serial decomposition of a few points per batch: what one point pays
    // per layer when nothing else runs.
    constexpr int kSampledPoints = 8;
    for (int k = 0; k < kSampledPoints; ++k) {
      const spice::SweepPoint& p = grid[next_sample++ % grid.size()];
      std::unique_ptr<DecomposedSession> s;
      api::JobResult r;
      long job_id = 0;
      {
        Span job("api.session_job");
        job_id = job.id();
        std::string text;
        {
          Span span("api.substitute");
          text = api::substitute_params(kMc, p);
        }
        s = std::make_unique<DecomposedSession>(text);
        r = s->run();
      }
      rec.op(r.ok, "decomposed sweep point failed: " + r.error);
      if (r.ok && k == 0)
        probe_kernel(*s->net.circuit, r.analyses[0].op.x, 0.0, 0.0, "XT", job_id);
    }
  });
  set_tracing(false);
}

}  // namespace perfbench
