// array_1k — a thousand-transducer array (TRANSARRAY n=1000, +-10% gap
// gradient) behind a 10 ohm bus resistor: .op + .tran + .ac on 2,003
// unknowns, one fresh api::Session per job. Its time goes to MNA assembly
// and the sparse refactor/solve; it never touches the dense kernel.
#include <algorithm>
#include <cmath>

#include "harness.hpp"
#include "spice/mna.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace usys;

namespace {

// The transient covers the 1 -> 2 V drive step; it is kept short so one run
// holds enough jobs for a tail percentile.
const char kArray[] = R"(* TRANSARRAY n=1000 behind a 10 ohm bus resistor
V1 drive 0 PULSE(1 2 0 10n 10n 1 2) AC 1
Rb drive bus 10
Xarr bus 0 TRANSARRAY n=1000 a=1e-8 d=2u m=1e-9 k=25 alpha=1e-4 dspread=0.1
.op
.tran 10n 2u
.ac dec 10 1k 1meg
.end
)";

/// Weighted DC residual ||F(x)|| of an operating point, from one
/// MnaAssembler::assemble call: every row's |F_i| over the solver's
/// absolute tolerance for that row (flow tolerance on KCL node rows,
/// effort tolerance on branch rows), maximized. Below 1 means the point
/// satisfies its equations to within the tolerances Newton converges to.
double weighted_residual(spice::Circuit& circuit, const DVector& x) {
  const spice::MnaPattern& pattern = circuit.mna_pattern();
  spice::MnaAssembler assembler(circuit, pattern);
  const auto n = static_cast<std::size_t>(circuit.unknown_count());
  DVector f(n, 0.0);
  DVector q(n, 0.0);
  assembler.assemble(spice::EvalCtx{}, x, f, q);
  const double gmin = spice::NewtonOptions{}.gmin;  // the op's diagonal shunt
  const auto nodes = static_cast<std::size_t>(circuit.node_count());
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int u = static_cast<int>(i);
    double residual = f[i];
    double tol = 0.0;
    if (i < nodes) {
      residual += gmin * x[i];
      tol = spice::flow_abstol(circuit.node_nature(u));
    } else {
      tol = spice::effort_abstol(circuit.unknown_nature(u));
    }
    worst = std::max(worst, std::abs(residual) / tol);
  }
  return worst;
}

void check_op(RunRecord& rec, spice::Circuit& circuit, const api::AnalysisOutcome& op) {
  const double r = op.ok ? weighted_residual(circuit, op.op.x) : INFINITY;
  rec.op(r < 1.0, ".op weighted residual " + std::to_string(r) + " >= 1");
}

}  // namespace

void run_array_1k(const RunOptions& opts, RunRecord& rec) {
  const double phase_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  rec.wall_s = run_for_with_setup(phase_s, rec.setup_s, [] { api::Session s(kArray); }, [&] {
    const Stamp t0;
    api::Session s(kArray);
    const api::JobResult r = s.run();
    rec.job_done(t0);
    if (!r.ok) {
      rec.op(false, "job failed: " + r.error);
      return;
    }
    check_op(rec, s.circuit(), r.analyses[0]);
  });
  if (!opts.trace) return;

  set_tracing(true);
  int probes = 0;
  run_for(phase_s, [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<DecomposedSession> s;
    api::JobResult r;
    long job_id = 0;
    {
      Span job("api.session_job");
      job_id = job.id();
      s = std::make_unique<DecomposedSession>(kArray);
      r = s->run();
    }
    rec.traced_job_ms.push_back(ms_between(t0, Clock::now()));
    if (!r.ok) {
      rec.op(false, "traced job failed: " + r.error);
      return;
    }
    check_op(rec, *s->net.circuit, r.analyses[0]);
    // Kernel probes at the final accepted transient point of a few jobs.
    constexpr int kProbedJobs = 4;
    if (probes++ < kProbedJobs) {
      const spice::TranResult& tr = r.analyses[1].tran;
      const std::size_t last = tr.time.size() - 1;
      const double a0 = 2.0 / (tr.time[last] - tr.time[last - 1]);
      probe_kernel(*s->net.circuit, tr.x[last], tr.time[last], a0, "", job_id);
    }
  });
  set_tracing(false);
}

}  // namespace perfbench
