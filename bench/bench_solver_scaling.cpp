// Dense vs sparse MNA scaling: time per Newton iteration (stamp + combine
// + factor + solve) on two topology families, swept from tens to thousands
// of unknowns:
//   * rc_ladder      — V source driving a chain of R/C sections
//   * resonator_array — chain of mass-spring-damper resonators coupled by
//     springs (mechanical banded system with branch unknowns)
// The dense path zero-fills n x n Jacobians and runs O(n^3) LU every
// iteration; the sparse path scatters into a pattern-cached CSR layout and
// reuses one symbolic factorization, so the gap widens cubically. A
// summary table with the measured speedups prints at exit.
//
// Also tracked here:
//   * ordering quality — BM_Ordering* times SparseLu::analyze (AMD) and
//     records the factor/fill nonzero counters;
//   * triangular solves and numeric refactorization — BM_TriangularSolve*
//     and BM_Refactor* on a chain (rc_ladder) and on a star-coupled
//     transducer array.
//
// CI smoke mode: --benchmark_min_time=0.02s --benchmark_format=json
//                --benchmark_out=BENCH_solver_scaling.json
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/sparse_lu.hpp"
#include "spice/lint.hpp"
#include "core/transducers.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

using namespace usys;

namespace {

std::unique_ptr<spice::Circuit> rc_ladder(int sections) {
  auto ckt = std::make_unique<spice::Circuit>();
  int prev = ckt->add_node("in", Nature::electrical);
  ckt->add<spice::VSource>("V1", prev, spice::Circuit::kGround, 1.0);
  for (int k = 0; k < sections; ++k) {
    const int node = ckt->add_node("n" + std::to_string(k), Nature::electrical);
    ckt->add<spice::Resistor>("R" + std::to_string(k), prev, node, 1e3);
    ckt->add<spice::Capacitor>("C" + std::to_string(k), node, spice::Circuit::kGround,
                               1e-9);
    prev = node;
  }
  return ckt;
}

std::unique_ptr<spice::Circuit> resonator_array(int count) {
  auto ckt = std::make_unique<spice::Circuit>();
  const int first = ckt->add_node("m0", Nature::mechanical_translation);
  ckt->add<spice::ForceSource>("F1", first, 1e-3);
  int prev = first;
  for (int k = 0; k < count; ++k) {
    const int node =
        k == 0 ? first : ckt->add_node("m" + std::to_string(k), Nature::mechanical_translation);
    ckt->add<spice::Mass>("M" + std::to_string(k), node, 1e-4);
    ckt->add<spice::Damper>("D" + std::to_string(k), node, spice::Circuit::kGround, 1e-2);
    if (k > 0)
      ckt->add<spice::Spring>("K" + std::to_string(k), prev, node, 250.0);
    ckt->add<spice::Spring>("Kg" + std::to_string(k), node, spice::Circuit::kGround, 400.0);
    prev = node;
  }
  return ckt;
}

/// One transient-like Newton iteration per call: max_iters = 1 makes
/// solve() do exactly stamp + combine + factor + solve once.
struct IterationHarness {
  std::unique_ptr<spice::Circuit> ckt;
  std::unique_ptr<spice::NewtonSolver> solver;
  DVector x0, hist;
  spice::EvalCtx ctx;
  double a0 = 0.0;

  IterationHarness(std::unique_ptr<spice::Circuit> circuit, spice::MatrixBackend backend)
      : ckt(std::move(circuit)) {
    spice::NewtonOptions opts;
    opts.max_iters = 1;
    opts.backend = backend;
    ckt->bind_all();
    solver = std::make_unique<spice::NewtonSolver>(*ckt, opts);
    const auto n = static_cast<std::size_t>(ckt->unknown_count());
    x0.assign(n, 0.0);
    hist.assign(n, 0.0);
    ctx.mode = spice::AnalysisMode::transient;
    ctx.time = 1e-6;
    ctx.integ_c0 = 0.0;
    ctx.integ_c1 = 1e-6;
    a0 = 1e6;  // backward Euler at dt = 1 us: exercises Jf + a0*Jq
  }

  void run_one() {
    DVector x = x0;
    benchmark::DoNotOptimize(solver->solve(ctx, a0, hist, x));
  }
};

/// Star-coupled electrostatic transducer array: every element hangs off one
/// drive bus (the paper's array workload).
std::unique_ptr<spice::Circuit> transducer_star(int elements) {
  auto ckt = std::make_unique<spice::Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  ckt->add<spice::VSource>("V1", drive, spice::Circuit::kGround, 2.0);
  core::TransducerGeometry g;
  g.area = 1e-8;
  g.eps_r = 1.0;
  for (int i = 0; i < elements; ++i) {
    const int mech =
        ckt->add_node("v" + std::to_string(i), Nature::mechanical_translation);
    g.gap = 2e-6 * (1.0 + 0.1 * (elements > 1 ? 2.0 * i / (elements - 1) - 1.0 : 0.0));
    ckt->add<core::TransverseElectrostatic>("XT" + std::to_string(i), drive,
                                            spice::Circuit::kGround, mech,
                                            spice::Circuit::kGround, g);
    ckt->add<spice::Mass>("M" + std::to_string(i), mech, 1e-9);
    ckt->add<spice::Spring>("K" + std::to_string(i), mech, spice::Circuit::kGround, 25.0);
    ckt->add<spice::Damper>("D" + std::to_string(i), mech, spice::Circuit::kGround, 1e-4);
  }
  return ckt;
}

std::unique_ptr<spice::Circuit> build(const std::string& family, int n_target) {
  // Families are sized by unknown count: ladder n ~ sections + 2,
  // resonator n ~ 2*count + 1, star n ~ 2*elements + 2.
  if (family == "rc_ladder") return rc_ladder(n_target - 2);
  if (family == "transducer_star") return transducer_star((n_target - 2) / 2);
  return resonator_array((n_target - 1) / 2);
}

/// A circuit's assembled transient Newton matrix (Jf + a0*Jq at x = 0,
/// backward Euler dt = 1 us) on its compiled CSR pattern — the real system
/// the ordering-quality and triangular-solve benchmarks factor.
struct SparseSystem {
  std::unique_ptr<spice::Circuit> ckt;
  std::unique_ptr<spice::NewtonSolver> solver;
  std::vector<double> jac;
  const spice::MnaPattern* pattern = nullptr;

  explicit SparseSystem(std::unique_ptr<spice::Circuit> circuit)
      : ckt(std::move(circuit)) {
    spice::NewtonOptions opts;
    opts.max_iters = 1;
    opts.backend = spice::MatrixBackend::sparse;
    ckt->bind_all();
    solver = std::make_unique<spice::NewtonSolver>(*ckt, opts);
    pattern = solver->pattern();
    const auto n = static_cast<std::size_t>(ckt->unknown_count());
    DVector x(n, 0.0), f, q;
    spice::EvalCtx ctx;
    ctx.mode = spice::AnalysisMode::transient;
    ctx.time = 1e-6;
    ctx.integ_c1 = 1e-6;
    solver->assemble_sparse(ctx, x, f, q);
    const auto& jfv = solver->sparse_jf();
    const auto& jqv = solver->sparse_jq();
    jac.resize(jfv.size());
    const double a0 = 1e6;
    for (std::size_t k = 0; k < jac.size(); ++k) jac[k] = jfv[k] + a0 * jqv[k];
  }
};

void run_family(benchmark::State& state, const std::string& family,
                spice::MatrixBackend backend) {
  IterationHarness harness(build(family, static_cast<int>(state.range(0))),
                           backend);
  if ((backend == spice::MatrixBackend::sparse) != harness.solver->sparse_active()) {
    state.SkipWithError("backend selection failed");
    return;
  }
  for (auto _ : state) harness.run_one();
  state.counters["unknowns"] = static_cast<double>(harness.ckt->unknown_count());
}

void BM_RcLadderDense(benchmark::State& state) {
  run_family(state, "rc_ladder", spice::MatrixBackend::dense);
}
void BM_RcLadderSparse(benchmark::State& state) {
  run_family(state, "rc_ladder", spice::MatrixBackend::sparse);
}
void BM_ResonatorArrayDense(benchmark::State& state) {
  run_family(state, "resonator_array", spice::MatrixBackend::dense);
}
void BM_ResonatorArraySparse(benchmark::State& state) {
  run_family(state, "resonator_array", spice::MatrixBackend::sparse);
}

// Dense stops at 1000 unknowns (a single O(n^3) iteration at 2000 takes
// seconds); sparse continues to 2000. The small sizes (8, 12, 20) probe the
// auto_select crossover (NewtonOptions::sparse_threshold).
BENCHMARK(BM_RcLadderDense)->Arg(8)->Arg(12)->Arg(20)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(500)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RcLadderSparse)->Arg(8)->Arg(12)->Arg(20)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(500)->Arg(1000)->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResonatorArrayDense)->Arg(8)->Arg(12)->Arg(20)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(500)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ResonatorArraySparse)->Arg(8)->Arg(12)->Arg(20)->Arg(50)->Arg(100)->Arg(200)
    ->Arg(500)->Arg(1000)->Arg(2000)->Unit(benchmark::kMicrosecond);

// --- ordering quality: analyze time + fill counters --------------------------

void run_ordering(benchmark::State& state, const std::string& family) {
  SparseSystem sys(build(family, static_cast<int>(state.range(0))));
  DSparseLu lu;
  // The timed region is analyze() — ordering construction dominates it; the
  // resulting fill is reported through the counters below.
  for (auto _ : state) {
    lu.analyze(sys.pattern->size(), sys.pattern->row_ptr(), sys.pattern->col_idx());
    benchmark::DoNotOptimize(lu.ordering().data());
  }
  lu.factor(sys.jac);
  const double nnz = static_cast<double>(lu.nonzeros());
  const double fnnz = static_cast<double>(lu.factor_nonzeros());
  state.counters["unknowns"] = static_cast<double>(sys.ckt->unknown_count());
  state.counters["pattern_nnz"] = nnz;
  state.counters["factor_nnz"] = fnnz;
  // Fill the ordering admitted beyond the pattern itself (both factor
  // diagonals double-count the n diagonal slots).
  state.counters["fill_nnz"] =
      std::max(0.0, fnnz - nnz - static_cast<double>(sys.pattern->size()));
}

void BM_OrderingRcLadderAmd(benchmark::State& state) {
  run_ordering(state, "rc_ladder");
}
void BM_OrderingResonatorAmd(benchmark::State& state) {
  run_ordering(state, "resonator_array");
}
BENCHMARK(BM_OrderingRcLadderAmd)->Arg(100)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OrderingResonatorAmd)->Arg(100)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

// --- triangular solves -------------------------------------------------------

void run_tri_solve(benchmark::State& state, const std::string& family) {
  SparseSystem sys(build(family, static_cast<int>(state.range(0))));
  DSparseLu lu;
  lu.analyze(sys.pattern->size(), sys.pattern->row_ptr(), sys.pattern->col_idx());
  lu.factor(sys.jac);
  const auto n = static_cast<std::size_t>(sys.pattern->size());
  DVector b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = 1.0 + 0.25 * static_cast<double>(i % 7);  // deterministic mixed rhs
  DVector x(n);
  for (auto _ : state) {
    x = b;
    lu.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["unknowns"] = static_cast<double>(sys.ckt->unknown_count());
  state.counters["factor_nnz"] = static_cast<double>(lu.factor_nonzeros());
}

void BM_TriangularSolveRcLadder(benchmark::State& state) {
  run_tri_solve(state, "rc_ladder");
}
void BM_TriangularSolveTransducerStar(benchmark::State& state) {
  run_tri_solve(state, "transducer_star");
}
BENCHMARK(BM_TriangularSolveRcLadder)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TriangularSolveTransducerStar)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

// --- numeric refactorization -------------------------------------------------

/// Pure refactorization cost: the first factor() records the pivot order,
/// every timed factor() replays it. This is the per-Newton-iteration factor
/// cost once the pivot order has settled — the dominant solver term on big
/// systems.
void run_refactor(benchmark::State& state, const std::string& family) {
  SparseSystem sys(build(family, static_cast<int>(state.range(0))));
  DSparseLu lu;
  lu.analyze(sys.pattern->size(), sys.pattern->row_ptr(), sys.pattern->col_idx());
  lu.factor(sys.jac);  // records the pivot order
  for (auto _ : state) {
    lu.factor(sys.jac);  // pure replay
    benchmark::DoNotOptimize(lu.factor_nonzeros());
  }
  state.counters["unknowns"] = static_cast<double>(sys.ckt->unknown_count());
  state.counters["symbolic"] = static_cast<double>(lu.symbolic_factorizations());
}

void BM_RefactorRcLadder(benchmark::State& state) {
  run_refactor(state, "rc_ladder");
}
void BM_RefactorTransducerStar(benchmark::State& state) {
  run_refactor(state, "transducer_star");
}
BENCHMARK(BM_RefactorRcLadder)->Arg(1000)->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RefactorTransducerStar)->Arg(1000)->Arg(2000)->Unit(benchmark::kMicrosecond);

// --- static lint pass cost ---------------------------------------------------

/// Full structural lint (connectivity + DC paths + matching probe) on a bound
/// circuit. Acceptance: at n = 2000 the pass costs under 1% of the sparse
/// symbolic analyze it precedes — cheap enough to always run before a solve.
void run_lint_pass(benchmark::State& state, const std::string& family) {
  auto ckt = build(family, static_cast<int>(state.range(0)));
  ckt->bind_all();
  for (auto _ : state) {
    spice::LintReport rep = spice::lint_circuit(*ckt);
    benchmark::DoNotOptimize(rep.diags.data());
  }
  state.counters["unknowns"] = static_cast<double>(ckt->unknown_count());
}

void BM_LintPassRcLadder(benchmark::State& state) {
  run_lint_pass(state, "rc_ladder");
}
void BM_LintPassResonatorArray(benchmark::State& state) {
  run_lint_pass(state, "resonator_array");
}
BENCHMARK(BM_LintPassRcLadder)->Arg(100)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LintPassResonatorArray)->Arg(100)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

/// Direct wall-clock summary (independent of google-benchmark's repetition
/// policy) — this is the table the acceptance criterion reads.
void print_summary() {
  using clock = std::chrono::steady_clock;
  std::puts("\n=== dense vs sparse: time per Newton iteration ===");
  std::printf("%-16s %8s %14s %14s %10s\n", "family", "n", "dense [ms]", "sparse [ms]",
              "speedup");
  for (const std::string family : {"rc_ladder", "resonator_array"}) {
    for (int n : {100, 250, 500, 1000, 2000}) {
      IterationHarness dense(build(family, n), spice::MatrixBackend::dense);
      IterationHarness sparse(build(family, n), spice::MatrixBackend::sparse);
      auto time_one = [&](IterationHarness& h, int reps) {
        h.run_one();  // warm-up (sparse: the one-time symbolic factorization)
        const auto t0 = clock::now();
        for (int r = 0; r < reps; ++r) h.run_one();
        return std::chrono::duration<double, std::milli>(clock::now() - t0).count() /
               reps;
      };
      const double td = time_one(dense, n >= 1000 ? 1 : 5);
      const double ts = time_one(sparse, 20);
      std::printf("%-16s %8d %14.3f %14.3f %9.1fx\n", family.c_str(),
                  dense.ckt->unknown_count(), td, ts, td / ts);
    }
  }
  std::puts("\nsparse time grows ~linearly on these banded topologies; the dense\n"
            "path pays the n^2 zero-fill + n^3 LU every iteration.");

  using clock2 = std::chrono::steady_clock;
  std::puts("\n=== ordering quality: AMD fill and analyze time ===");
  std::printf("%-16s %8s %10s %12s %12s\n", "family", "n", "nnz", "factor nnz",
              "analyze [ms]");
  for (const std::string family : {"rc_ladder", "resonator_array", "transducer_star"}) {
    for (int n : {500, 1000, 2000}) {
      SparseSystem sys(build(family, n));
      DSparseLu lu;
      const auto t0 = clock2::now();
      lu.analyze(sys.pattern->size(), sys.pattern->row_ptr(), sys.pattern->col_idx());
      const double t_ms =
          std::chrono::duration<double, std::milli>(clock2::now() - t0).count();
      lu.factor(sys.jac);
      std::printf("%-16s %8d %10zu %12zu %12.3f\n", family.c_str(),
                  sys.ckt->unknown_count(), lu.nonzeros(), lu.factor_nonzeros(), t_ms);
    }
  }

  std::puts("\n=== lint pass vs one-time sparse setup (pattern compile + analyze) ===");
  std::printf("%-16s %8s %14s %12s %12s %10s %10s\n", "family", "n",
              "preflight [ms]", "full [ms]", "setup [ms]", "pre/setup", "full/setup");
  for (const std::string family : {"rc_ladder", "resonator_array", "transducer_star"}) {
    for (int n : {1000, 2000}) {
      auto ckt = build(family, n);
      ckt->bind_all();
      constexpr int reps = 20;
      const auto time_lint = [&](const spice::LintOptions& o) {
        const auto t0 = clock2::now();
        for (int r = 0; r < reps; ++r) {
          spice::LintReport rep = spice::lint_circuit(*ckt, o);
          benchmark::DoNotOptimize(rep.diags.data());
        }
        return std::chrono::duration<double, std::milli>(clock2::now() - t0).count() /
               reps;
      };
      spice::LintOptions preflight;  // what AnalysisEngine always runs
      preflight.matching = false;
      preflight.hdl = false;
      const double t_pre = time_lint(preflight);
      const double t_full = time_lint(spice::LintOptions{});
      // The setup the lint precedes: solver construction (MNA pattern
      // compile) plus the LU symbolic analyze on that pattern.
      spice::NewtonOptions nopts;
      nopts.max_iters = 1;
      nopts.backend = spice::MatrixBackend::sparse;
      auto t0 = clock2::now();
      double t_anl = 0.0;
      for (int r = 0; r < reps; ++r) {
        spice::NewtonSolver solver(*ckt, nopts);
        const auto ta = clock2::now();
        DSparseLu lu;
        lu.analyze(solver.pattern()->size(), solver.pattern()->row_ptr(),
                   solver.pattern()->col_idx());
        t_anl += std::chrono::duration<double, std::milli>(clock2::now() - ta).count();
      }
      const double t_setup =
          std::chrono::duration<double, std::milli>(clock2::now() - t0).count() / reps;
      benchmark::DoNotOptimize(t_anl);
      const double pre_pct = 100.0 * t_pre / t_setup;
      const double full_pct = 100.0 * t_full / t_setup;
      std::printf("%-16s %8d %14.4f %12.4f %12.4f %9.1f%% %9.1f%%%s\n", family.c_str(),
                  ckt->unknown_count(), t_pre, t_full, t_setup, pre_pct, full_pct,
                  (n >= 2000 && (pre_pct > 25.0 || full_pct > 150.0))
                      ? "  << OVER BUDGET"
                      : "");
    }
  }
  std::puts(
      "\nacceptance (n = 2000 rows): the errors-only preflight every solve pays is\n"
      "< 25% of the one-time sparse setup it precedes, and the full probed-pattern\n"
      "lint (usim --lint) stays within 1.5x of that setup. Both are one-shot costs:\n"
      "against a whole DC solve or transient run they are noise.");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
