// A sweep point solves only the AC frequency it reports: api::run_sweep_point
// runs every .ac card as a one-frequency card at the card's last grid
// frequency. Its `ac dB(fstop):<node>` metrics must equal the last row of a
// full .op + .ac Session job of the same point — bit for bit on the dense
// backend (the Listing 1 HDL Monte Carlo netlist under all three executors,
// a native resonator), within 1e-12 relative on the sparse one (a
// 6-element transducer array, which pivots at fstop instead of at f_start),
// on both the warm-template path and the text path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "spice/sweep.hpp"

namespace usys::api {
namespace {

const char kHdlMc[] = R"(* MC: Listing 1 transducer with drawn gap, spring and drive
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

const char kNativeMc[] = R"(* MC: native resonator, linear sweep through its resonance
.param k dist=normal(200,10)
.param vd dist=uniform(5,15)
V1 drive 0 {vd} AC 1
XT drive 0 vel 0 ETRANSV a=1e-4 d=0.15m er=1
Xm vel MASS m=1e-4
Xk vel 0 SPRING k={k}
Xd vel 0 DAMPER alpha=40m
.op
.ac lin 7 100 400
.end
)";

// 15 unknowns: the sparse backend. A drawn bus resistor keeps the template
// warm; a drawn TRANSARRAY gap sends every point down the text path.
const char kArrayWarm[] = R"(* MC: transducer array behind a drawn bus resistor
.param rb dist=normal(10,1)
V1 in 0 2 AC 1
Rbus in drive {rb}
Xarr drive 0 TRANSARRAY n=6 a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0.1
.op
.ac dec 10 1k 1meg
.end
)";

const char kArrayText[] = R"(* MC: transducer array with a drawn gap
.param gap dist=normal(2u,0.05u)
V1 in 0 2 AC 1
Rbus in drive 10
Xarr drive 0 TRANSARRAY n=6 a=1e-8 d={gap} m=1e-9 k=25 alpha=1e-4 dspread=0.1
.op
.ac dec 10 1k 1meg
.end
)";

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<spice::SweepPoint> mc(const std::string& text, int n, std::uint64_t seed) {
  return spice::mc_grid({}, spice::parse_param_dists(text), {seed, n});
}

/// The `ac dB(fstop):<node>` metrics a full .op + .ac job of `point` gives:
/// the last row of its whole-grid sweep.
std::vector<std::pair<std::string, double>> full_grid_last_row(
    const std::string& text, const spice::SweepPoint& point, const std::string& mode) {
  Session session(substitute_params(text, point), mode);
  const JobResult r = session.run();
  EXPECT_TRUE(r.ok) << r.error;
  std::vector<std::pair<std::string, double>> out;
  if (!r.ok) return out;
  const spice::AcResult& ac = r.analyses.at(1).ac;
  EXPECT_GT(ac.freq.size(), 2u);
  const std::size_t last = ac.freq.size() - 1;
  for (int i = 0; i < session.circuit().node_count(); ++i)
    out.emplace_back("ac dB(fstop):" + session.circuit().node_name(i),
                     ac.magnitude_db(last, i));
  return out;
}

/// Checks a sweep point's AC metrics against the full job's last row:
/// bit for bit when `rel_tol` is 0, else within that relative distance.
void expect_last_row(const spice::SweepOutcome& point,
                     const std::vector<std::pair<std::string, double>>& want,
                     double rel_tol) {
  ASSERT_TRUE(point.ok) << point.error;
  std::size_t seen = 0;
  for (const auto& [name, value] : point.metrics) {
    if (name.rfind("ac dB(fstop):", 0) != 0) continue;
    ASSERT_LT(seen, want.size());
    EXPECT_EQ(name, want[seen].first);
    const double ref = want[seen].second;
    if (rel_tol == 0.0) {
      EXPECT_EQ(bits(value), bits(ref)) << name << ": " << value << " vs " << ref;
    } else {
      EXPECT_LE(std::abs(value - ref), rel_tol * std::abs(ref)) << name;
    }
    ++seen;
  }
  EXPECT_EQ(seen, want.size());
}

/// Every point of `grid` through run_sweep_point on the template (the warm
/// path when `want_warm`) and on its substituted text (the text path).
void expect_points_match_full_jobs(const std::string& text,
                                   const std::vector<spice::SweepPoint>& grid,
                                   const std::string& mode, bool want_warm,
                                   double rel_tol) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const auto want = full_grid_last_row(text, grid[i], mode);
    expect_last_row(run_sweep_point(text, grid[i], mode, {}, 0), want, rel_tol);
    EXPECT_EQ(sweep_template_warm(text, mode), want_warm);
    expect_last_row(run_sweep_point(substitute_params(text, grid[i]), {}, mode, {}, 0), want,
                    rel_tol);
  }
}

TEST(SweepAc, HdlPointEqualsFullGridLastRowInEveryExecutor) {
  const auto grid = mc(kHdlMc, 12, 7);
  for (const char* mode : {"ast", "bytecode", "codegen"}) {
    SCOPED_TRACE(mode);
    expect_points_match_full_jobs(kHdlMc, grid, mode, true, 0.0);
  }
}

TEST(SweepAc, NativeResonatorPointEqualsFullGridLastRow) {
  expect_points_match_full_jobs(kNativeMc, mc(kNativeMc, 12, 5), "", true, 0.0);
}

TEST(SweepAc, SparseArrayPointIsWithinRoundingOfFullGridLastRow) {
  expect_points_match_full_jobs(kArrayWarm, mc(kArrayWarm, 6, 3), "", true, 1e-12);
  expect_points_match_full_jobs(kArrayText, mc(kArrayText, 6, 3), "", false, 1e-12);
}

}  // namespace
}  // namespace usys::api
