// PWL macromodels: interpolation, the polynomial fit, and generated-HDL
// round trips.
#include <gtest/gtest.h>

#include <cmath>

#include "api/api.hpp"
#include "core/reference.hpp"
#include "hdl/interpreter.hpp"
#include "pxt/pwl.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::pxt {
namespace {

TEST(Pwl, InterpolationAndClamping) {
  const Pwl1 f({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(f(5.0), 0.0);
}

TEST(Pwl, RejectsBadInput) {
  EXPECT_THROW(Pwl1({1.0}, {2.0}), std::invalid_argument);
  EXPECT_THROW(Pwl1({1.0, 0.5}, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Pwl1({0.0, 1.0}, {0.0}), std::invalid_argument);
}

TEST(Pwl, PolyfitRecoversPolynomial) {
  std::vector<double> x, y;
  for (int i = 0; i <= 10; ++i) {
    const double t = static_cast<double>(i) / 10.0;
    x.push_back(t);
    y.push_back(2.0 - 3.0 * t + 0.5 * t * t);
  }
  const auto c = polyfit(x, y, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 2.0, 1e-9);
  EXPECT_NEAR(c[1], -3.0, 1e-9);
  EXPECT_NEAR(c[2], 0.5, 1e-9);
}

TEST(Pwl, PolyfitValidation) {
  EXPECT_THROW(polyfit({1.0}, {1.0, 2.0}, 1), std::invalid_argument);
  EXPECT_THROW(polyfit({1.0, 2.0}, {1.0, 2.0}, 5), std::invalid_argument);
}

ExtractionTable analytic_table() {
  // Build a capacitance table directly from the analytic formula (keeps the
  // test fast and independent of the FE solver, which has its own tests).
  ExtractionSetup setup;
  setup.width = 0.1;
  setup.depth = 1e-3;
  setup.gap0 = 0.15e-3;
  ExtractionTable t;
  t.setup = setup;
  t.voltages = {10.0};
  for (int i = -6; i <= 6; ++i) {
    const double x = static_cast<double>(i) * 5e-6;
    t.displacements.push_back(x);
    ExtractionSample s;
    s.displacement = x;
    s.voltage = 10.0;
    s.capacitance = analytic_capacitance(setup, x);
    s.force_mst = analytic_force(setup, x, 10.0);
    t.samples.push_back(s);
  }
  return t;
}

TEST(Pwl, CapacitanceModelTracksAnalytic) {
  const auto table = analytic_table();
  const Pwl1 cap = capacitance_model(table);
  for (double x : {-2.4e-5, 0.0, 1.7e-5}) {
    EXPECT_NEAR(cap(x), analytic_capacitance(table.setup, x),
                analytic_capacitance(table.setup, x) * 2e-3)
        << x;
  }
}

TEST(Pwl, GeneratedHdlSimulates) {
  // generate_hdl_model -> parse -> elaborate -> simulate the Fig. 3 system;
  // deflection must match the analytic static value.
  const auto table = analytic_table();
  const std::string src = generate_hdl_model(table, 3);
  EXPECT_NE(src.find("ENTITY pxt_etrans"), std::string::npos);

  spice::Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  const int disp = ckt.add_node("disp", Nature::mechanical_translation);
  ckt.add<spice::VSource>(
      "V1", drive, spice::Circuit::kGround,
      std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {5e-3, 10.0}, {1.0, 10.0}}));
  ckt.add_device(hdl::instantiate(
      "XT", src, "pxt_etrans", {},
      {drive, spice::Circuit::kGround, vel, spice::Circuit::kGround}));
  ckt.add<spice::Mass>("M1", vel, 1e-4);
  ckt.add<spice::Spring>("K1", vel, spice::Circuit::kGround, 200.0);
  ckt.add<spice::Damper>("D1", vel, spice::Circuit::kGround, 40e-3);
  ckt.add<spice::StateIntegrator>("XD", disp, vel);

  spice::TranOptions opts;
  opts.tstop = 80e-3;
  const auto res = api::transient(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  core::ResonatorParams p;
  const double x_expected = core::static_displacement_transverse(p, 10.0);
  EXPECT_NEAR(res.sample(80e-3, disp), x_expected, std::abs(x_expected) * 0.03);
}

}  // namespace
}  // namespace usys::pxt
