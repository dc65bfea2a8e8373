// Bias centering: pick the DC bias of the Listing 1 transducer from a
// tolerance analysis. The gap, spring and bias vary part to part; a part
// passes when its 10 kHz small-signal velocity response reaches the
// sensitivity spec, a `.measure` card on the AC metric. For each candidate
// nominal bias the study runs one Monte Carlo batch and reports its yield,
// then picks the lowest bias whose yield meets the target.
//
// The netlist text stays the same for every candidate; only the request's
// `vd` distribution changes. So each sweep worker builds its warm template
// in the first batch and runs every later batch on it (docs/sweeps.md).
//
// Build & run:  cmake --build build && ./build/example_bias_centering
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "api/api.hpp"
#include "common/table.hpp"

int main() {
  using namespace usys;

  // Listing 1 with toleranced gap and spring; the bias comes per candidate.
  // The .measure floor is kSpecDb.
  const std::string netlist =
      "* Listing 1 transducer, toleranced\n"
      ".param gap dist=normal(0.15m,3u)\n"
      ".param k dist=normal(200,10)\n"
      ".measure sens ac dB(fstop):vel min=-144\n"
      "V1 drive 0 {vd} AC 1\n"
      "XT drive 0 vel 0 HDLTRANSV a=1e-4 d={gap} er=1\n"
      "Xm vel MASS m=1e-4\n"
      "Xk vel 0 SPRING k={k}\n"
      "Xd vel 0 DAMPER alpha=40m\n"
      ".ac dec 5 10 10k\n"
      ".end\n";
  constexpr int kDraws = 1000;
  constexpr double kSpecDb = -144.0;  // ac dB(fstop):vel at least this
  constexpr double kTargetYield = 0.99;

  AsciiTable t({"bias [V]", "yield", "batch [ms]"});
  double chosen = 0.0;
  for (double bias = 8.0; bias <= 14.0; bias += 1.0) {
    // A 3% (1 sigma) bias supply tolerance around the candidate nominal.
    char spec[64];
    std::snprintf(spec, sizeof spec, "vd=normal(%g,%g)", bias, 0.03 * bias);
    api::SweepPlan plan;
    std::string error;
    if (!api::plan_sweep({netlist, {spec}, kDraws, "1", ""}, plan, error)) {
      std::cerr << "bad sweep: " << error << "\n";
      return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const api::SweepRun run = api::run_sweep(plan, 0, {}, {});
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    const spice::YieldSummary y = run.stats.yield();
    if (y.ok != y.n) {
      std::cerr << "bias " << bias << " V: " << y.n - y.ok << " points failed\n";
      return 1;
    }
    t.add_row({fmt_num(bias, 3), fmt_num(y.yield, 4), fmt_num(ms, 3)});
    if (chosen == 0.0 && y.yield >= kTargetYield) chosen = bias;
  }
  std::cout << "Sensitivity spec: |v(vel)/v(drive)| >= " << kSpecDb << " dB at 10 kHz, " << kDraws
            << " parts per candidate\n";
  t.print(std::cout);
  if (chosen == 0.0) {
    std::cout << "no candidate reaches " << kTargetYield * 100 << "% yield\n";
    return 1;
  }
  std::cout << "lowest bias with >= " << kTargetYield * 100 << "% yield: " << chosen << " V\n";
  return 0;
}
