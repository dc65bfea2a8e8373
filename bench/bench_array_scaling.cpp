// Device-array scaling: MNA assembly on N-element transverse-transducer
// arrays (the thousand-transducer MEMS workload the sparse path was built
// for), plus batch sweep throughput via SweepRunner.
//
// The arrays are built through the netlist front end's one-line constructs
// (`X... TRANSARRAY n=N ...`), so this bench also covers the ARRAY parse
// path at scale. Assembly benches time ONE MnaAssembler::assemble pass —
// the per-Newton-iteration device-evaluation cost; the summary table at
// exit reports the time per pass and per element.
//
// CI smoke mode: --benchmark_min_time=0.02s --benchmark_format=json
//                --benchmark_out=BENCH_array_scaling.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "core/netlist_ext.hpp"
#include "spice/engine.hpp"
#include "spice/sweep.hpp"

using namespace usys;

namespace {

std::string array_netlist(int elements, double gap) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "* transducer array\n"
                "V1 drive 0 2\n"
                "Xarr drive 0 TRANSARRAY n=%d a=1e-8 d=%g m=1e-9 k=25 "
                "alpha=1e-4 dspread=0.1\n",
                elements, gap);
  return buf;
}

std::unique_ptr<spice::Circuit> build_array(int elements, double gap = 2e-6) {
  auto parser = core::make_full_parser();
  return parser.parse(array_netlist(elements, gap)).circuit;
}

struct AssembleHarness {
  std::unique_ptr<spice::Circuit> ckt;
  std::unique_ptr<spice::MnaAssembler> assembler;
  DVector x, f, q;
  spice::EvalCtx ctx;

  explicit AssembleHarness(int elements) : ckt(build_array(elements)) {
    ckt->bind_all();
    const spice::MnaPattern& pattern = ckt->mna_pattern();
    assembler = std::make_unique<spice::MnaAssembler>(*ckt, pattern);
    x.assign(static_cast<std::size_t>(ckt->unknown_count()), 1e-3);
    ctx.mode = spice::AnalysisMode::transient;
    ctx.time = 1e-6;
    ctx.integ_c1 = 1e-6;
  }

  void run_one() {
    assembler->assemble(ctx, x, f, q);
    benchmark::DoNotOptimize(f.data());
  }
};

void BM_Assemble(benchmark::State& state) {
  AssembleHarness harness(static_cast<int>(state.range(0)));
  for (auto _ : state) harness.run_one();
  state.counters["unknowns"] = static_cast<double>(harness.ckt->unknown_count());
}

BENCHMARK(BM_Assemble)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

/// Batch sweep: a 16-point gap x drive grid of operating points on a
/// 64-element array per point, fanned across the pool.
void BM_SweepOpGrid(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto grid =
      spice::sweep_grid({spice::SweepAxis::linspace("gap", 1.5e-6, 2.5e-6, 4),
                         spice::SweepAxis::linspace("vd", 0.5, 2.0, 4)});
  spice::SweepRunner runner(threads);
  int failures = 0;
  for (auto _ : state) {
    const auto results = runner.run(grid, [](const spice::SweepPoint& p) {
      auto ckt = build_array(64, p.value("gap"));
      spice::AnalysisEngine engine(*ckt);
      const spice::OpResult op = engine.run_op();
      spice::SweepOutcome out;
      out.ok = op.converged;
      return out;
    });
    for (const auto& r : results) failures += r.ok ? 0 : 1;
  }
  if (failures > 0) state.SkipWithError("sweep points failed");
  state.counters["points"] = static_cast<double>(grid.size());
}

BENCHMARK(BM_SweepOpGrid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Direct wall-clock summary (independent of google-benchmark's repetition
/// policy) — this is the table the acceptance criterion reads.
void print_summary() {
  using clock = std::chrono::steady_clock;
  std::printf("\n=== assembly: time per stamp pass ===\n");
  std::printf("%8s %10s %14s %16s\n", "elements", "unknowns", "pass [ms]",
              "per element [us]");
  for (int elements : {256, 1024, 4096}) {
    AssembleHarness harness(elements);
    harness.run_one();  // warm-up
    const int reps = elements >= 4096 ? 10 : 40;
    const auto t0 = clock::now();
    for (int r = 0; r < reps; ++r) harness.run_one();
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count() / reps;
    std::printf("%8d %10d %14.3f %16.3f\n", elements, harness.ckt->unknown_count(), ms,
                1e3 * ms / elements);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
