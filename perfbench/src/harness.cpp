#include "harness.hpp"

#include <sys/resource.h>

#include <cstring>
#include <ctime>

#include "common/matrix.hpp"
#include "common/sparse_lu.hpp"
#include "core/netlist_ext.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace usys;

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void RunRecord::ops(long count, long failed_ops, const std::string& why) {
  attempted += count;
  failed += failed_ops;
  if (failed_ops > 0 && failure_notes.size() < 8) failure_notes.push_back(why);
}

void RunRecord::job_done(const Stamp& start) {
  job_ms.push_back(ms_between(start.wall, Clock::now()));
  job_cpu_ms.push_back(1000.0 * (process_cpu_s() - start.cpu_s));
}

double run_for(double seconds, const std::function<void()>& job) {
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration<double>(seconds);
  do {
    job();
  } while (Clock::now() < until);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double run_for_with_setup(double seconds, std::vector<double>& setup_s,
                          const std::function<void()>& make, const std::function<void()>& job) {
  double in_setup = 0.0;
  const double wall = run_for(seconds, [&] {
    const auto t0 = Clock::now();
    make();
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    in_setup += setup_s.back();
    job();
  });
  return wall - in_setup;
}

DecomposedSession::DecomposedSession(const std::string& text) {
  {
    Span span("netlist.parse");
    auto parser = core::make_full_parser();
    net = parser.parse(text);
  }
  {
    Span span("circuit.bind");
    net.circuit->bind_all();
    (void)net.circuit->mna_pattern();
  }
  Span span("lint.preflight");
  session = std::make_unique<api::Session>(*net.circuit);
}

api::JobResult DecomposedSession::run() {
  api::JobRequest request;
  request.analyses = net.analyses;
  std::int64_t start = trace_clock_ns();
  return session->run(request, [&start](std::size_t, const api::AnalysisOutcome& o) {
    const std::int64_t end = trace_clock_ns();
    switch (o.kind) {
      case spice::AnalysisCard::Kind::op:
        record_span("engine.run_op", start, end,
                    {{"newton_iters", o.op.newton_iterations},
                     {"symbolic_factorizations", o.op.symbolic_factorizations}});
        break;
      case spice::AnalysisCard::Kind::tran:
        record_span("engine.run_tran", start, end,
                    {{"newton_iters", o.tran.total_newton_iters},
                     {"tran_points", static_cast<double>(o.tran.time.size())},
                     {"rejected_steps", o.tran.rejected_steps},
                     {"symbolic_factorizations", o.tran.symbolic_factorizations}});
        break;
      case spice::AnalysisCard::Kind::ac:
        record_span("engine.run_ac", start, end,
                    {{"ac_points", static_cast<double>(o.ac.freq.size())},
                     {"symbolic_factorizations", o.ac.symbolic_factorizations}});
        break;
    }
    start = trace_clock_ns();
  });
}

namespace {

template <typename T>
bool same_vector(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

bool same_bits(const api::AnalysisOutcome& a, const api::AnalysisOutcome& b) {
  if (a.kind != b.kind || a.ok != b.ok) return false;
  switch (a.kind) {
    case spice::AnalysisCard::Kind::op:
      return same_vector(a.op.x, b.op.x);
    case spice::AnalysisCard::Kind::tran:
      if (!same_vector(a.tran.time, b.tran.time) || a.tran.x.size() != b.tran.x.size())
        return false;
      for (std::size_t k = 0; k < a.tran.x.size(); ++k)
        if (!same_vector(a.tran.x[k], b.tran.x[k])) return false;
      return true;
    case spice::AnalysisCard::Kind::ac:
      if (!same_vector(a.ac.freq, b.ac.freq) || a.ac.x.size() != b.ac.x.size()) return false;
      for (std::size_t k = 0; k < a.ac.x.size(); ++k)
        if (!same_vector(a.ac.x[k], b.ac.x[k])) return false;
      return true;
  }
  return false;
}

void probe_kernel(spice::Circuit& circuit, const DVector& x, double time, double a0,
                  const std::string& hdl_device, long job_span) {
  const spice::NewtonOptions nopts;  // the analyses' backend selection
  const int n = circuit.unknown_count();
  const auto un = static_cast<std::size_t>(n);
  const spice::MnaPattern& pattern = circuit.mna_pattern();
  const bool sparse = pattern.complete() && n >= nopts.sparse_threshold;

  spice::EvalCtx ctx;
  ctx.mode = a0 > 0.0 ? spice::AnalysisMode::transient : spice::AnalysisMode::dc;
  ctx.time = time;
  // Trapezoidal: a0 = 2/h, and integ() states advance by h/2 per endpoint.
  ctx.integ_c0 = ctx.integ_c1 = a0 > 0.0 ? 1.0 / a0 : 0.0;
  DVector f(un, 0.0);
  DVector q(un, 0.0);

  const auto timed = [job_span](const char* name, int reps, const auto& body) {
    Span span(name);
    span.arg("reps", reps);
    span.arg("job", static_cast<double>(job_span));
    for (int r = 0; r < reps; ++r) body();
  };

  if (!sparse) {
    spice::NewtonSolver solver(circuit, nopts);
    DMatrix jf(un, un);
    DMatrix jq(un, un);
    constexpr int kReps = 2000;
    timed("solver.stamp", kReps, [&] { solver.stamp(ctx, x, f, q, jf, jq); });
    DMatrix jac(un, un);
    for (std::size_t r = 0; r < un; ++r)
      for (std::size_t c = 0; c < un; ++c) jac(r, c) = jf(r, c) + a0 * jq(r, c);
    DMatrix a;
    DVector b;
    timed("matrix.lu_solve", kReps, [&] {
      a = jac;
      b = f;
      lu_solve(a, b);
    });
    if (spice::Device* dev = circuit.find_device(hdl_device)) {
      spice::EvalCtx dctx = ctx;
      dctx.x = &x;
      dctx.f = &f;
      dctx.q = &q;
      dctx.jf = &jf;
      dctx.jq = &jq;
      timed("hdl.evaluate", kReps, [&] { dev->evaluate(dctx); });
    }
    return;
  }

  spice::MnaAssembler assembler(circuit, pattern);
  constexpr int kReps = 20;
  timed("mna.assemble", kReps, [&] { assembler.assemble(ctx, x, f, q); });
  // The Newton matrix the solver factors: Jf + a0*Jq plus gmin on node rows.
  std::vector<double> vals(assembler.jf_values());
  const auto& jq_vals = assembler.jq_values();
  for (std::size_t s = 0; s < vals.size(); ++s) vals[s] += a0 * jq_vals[s];
  for (int i = 0; i < circuit.node_count(); ++i)
    vals[static_cast<std::size_t>(pattern.diag_slot(i))] += nopts.gmin;

  DSparseLu lu;
  timed("sparse_lu.analyze", 5, [&] { lu.analyze(n, pattern.row_ptr(), pattern.col_idx()); });
  {
    Span span("sparse_lu.factor");
    constexpr int kFactorReps = 5;
    span.arg("reps", kFactorReps);
    span.arg("job", static_cast<double>(job_span));
    for (int r = 0; r < kFactorReps; ++r) {
      lu.invalidate_pivot_order();  // forces the pivot-searching factorization
      lu.factor(vals);
    }
    span.arg("nnz", static_cast<double>(lu.nonzeros()));
    span.arg("factor_nnz", static_cast<double>(lu.factor_nonzeros()));
  }
  timed("sparse_lu.refactor", kReps, [&] { lu.factor(vals); });
  std::vector<double> b;
  timed("sparse_lu.solve", kReps, [&] {
    b = f;
    lu.solve(b);
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
