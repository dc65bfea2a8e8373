// The paper's Fig. 3 run (Listing 1 HDL transducer on the bytecode executor,
// mass/spring/damper, 10 V pulse, .tran to 60 ms): delivered accuracy
// against a tight reference run, and Newton work per accepted step. The
// quadratic predictor that seeds Newton must buy iterations without moving
// the trajectory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "api/api.hpp"
#include "core/netlist_ext.hpp"

namespace usys {
namespace {

const char kFig3[] = R"(* Fig. 3 resonator: Listing 1 HDL transverse transducer
V1 drive 0 PULSE(0 10 6m 2m 2m 44m 1)
XT drive 0 vel 0 HDLTRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k=200
Xd vel 0 DAMPER alpha=40m
Xi disp vel INTEG
.options dtmax=%s
.tran 10u 60m
.end
)";

struct Fig3Run {
  spice::TranResult tran;
  int disp = -1;
};

Fig3Run run_fig3(const char* dtmax, double lte_reltol) {
  char text[sizeof kFig3 + 16];
  std::snprintf(text, sizeof text, kFig3, dtmax);
  auto parser = core::make_full_parser();
  spice::Netlist net = parser.parse(text);
  EXPECT_EQ(net.analyses.size(), 1u);
  spice::TranOptions opts = net.analyses.at(0).tran;
  opts.lte_reltol = lte_reltol;
  Fig3Run out;
  out.disp = net.circuit->node("disp");
  out.tran = api::transient(*net.circuit, opts);
  return out;
}

TEST(Fig3Transient, AccurateWithAboutOneNewtonIterationPerStep) {
  const Fig3Run run = run_fig3("0.1m", 1e-4);  // the paper run, default tolerance
  ASSERT_TRUE(run.tran.ok) << run.tran.error;
  const Fig3Run ref = run_fig3("1u", 1e-7);
  ASSERT_TRUE(ref.tran.ok) << ref.tran.error;

  for (int k = 1; k <= 5; ++k) {
    const double t = 0.01 * k;
    const double x_ref = ref.tran.sample(t, ref.disp);
    const double x = run.tran.sample(t, run.disp);
    ASSERT_GT(std::abs(x_ref), 1e-9) << "t=" << t;
    EXPECT_LE(std::abs(x - x_ref) / std::abs(x_ref), 1e-5)
        << "t=" << t << " x=" << x << " ref=" << x_ref;
  }

  // Newton iterations per accepted step (the DC point is not a step).
  const std::size_t points = run.tran.time.size();
  ASSERT_GT(points, 1u);
  const double iters_per_step =
      static_cast<double>(run.tran.total_newton_iters) / static_cast<double>(points - 1);
  EXPECT_LE(iters_per_step, 1.15) << run.tran.total_newton_iters << " iterations over "
                                  << points << " points";
}

}  // namespace
}  // namespace usys
