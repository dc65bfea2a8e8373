// fig3_tran — the paper's headline run: the Listing 1 HDL transverse
// transducer (bytecode executor) driving a mass/spring/damper resonator
// through a 10 V pulse, .tran to 60 ms at dtmax 0.1 ms. One fresh
// api::Session per job. Its time goes to step control, the dense LU, the
// Newton loop and HDL evaluation; parse and bind are noise.
#include <cmath>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace usys;

namespace {

const char kFig3[] = R"(* Fig. 3 resonator: Listing 1 HDL transverse transducer
V1 drive 0 PULSE(0 10 6m 2m 2m 44m 1)
XT drive 0 vel 0 HDLTRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
Xi disp vel INTEG
.options dtmax=0.1m
.tran 10u 60m
.end
)";

/// The same resonator on the native ETRANSV device.
std::string native_twin() {
  std::string text = kFig3;
  text.replace(text.find("HDLTRANSV"), 9, "ETRANSV");
  return text;
}

/// The HDL trajectory against its native twin, with the tolerance of the
/// repo's Listing-1 cross-check (tests/integration/test_hdl_vs_native.cpp):
/// |x_hdl - x_native| <= 1% |x_native| + 1e-13 m at t = 10, 20, ..., 50 ms.
bool matches_native(const spice::TranResult& hdl, int hdl_disp) {
  api::Session native(native_twin());
  const api::JobResult nr = native.run();
  if (!nr.ok) return false;
  const int native_disp = native.circuit().node("disp");
  for (int k = 1; k <= 5; ++k) {
    const double t = 0.01 * k;
    const double xn = nr.analyses[0].tran.sample(t, native_disp);
    if (std::abs(hdl.sample(t, hdl_disp) - xn) > std::abs(xn) * 0.01 + 1e-13) return false;
  }
  return true;
}

}  // namespace

void run_fig3_tran(const RunOptions& opts, RunRecord& rec) {
  api::Session first(kFig3);
  const api::JobResult ref = first.run();
  rec.op(ref.ok, "first job: " + ref.error);
  if (!ref.ok) return;
  const api::AnalysisOutcome& ref_tran = ref.analyses[0];
  rec.op(matches_native(ref_tran.tran, first.circuit().node("disp")),
         "HDL trajectory differs from the native ETRANSV twin");

  const double phase_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  rec.wall_s = run_for_with_setup(phase_s, rec.setup_s, [] { api::Session s(kFig3); }, [&] {
    const Stamp t0;
    api::Session s(kFig3);
    const api::JobResult r = s.run();
    rec.job_done(t0);
    rec.op(r.ok && same_bits(r.analyses[0], ref_tran), "job differs from the first job");
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
      s = std::make_unique<DecomposedSession>(kFig3);
      r = s->run();
    }
    rec.traced_job_ms.push_back(ms_between(t0, Clock::now()));
    const bool ok = r.ok && same_bits(r.analyses[0], ref_tran);
    rec.op(ok, "traced job differs from the first job");
    // Kernel probes at the final accepted point of a few jobs.
    constexpr int kProbedJobs = 8;
    if (ok && probes++ < kProbedJobs) {
      const spice::TranResult& tr = r.analyses[0].tran;
      const std::size_t last = tr.time.size() - 1;
      const double a0 = 2.0 / (tr.time[last] - tr.time[last - 1]);
      probe_kernel(*s->net.circuit, tr.x[last], tr.time[last], a0, "XT", job_id);
    }
  });
  set_tracing(false);
}

}  // namespace perfbench
