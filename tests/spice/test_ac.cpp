// AC small-signal sweeps: RC pole, RLC resonance, and the automatic
// linearization path (Jf + jw Jq from the same device stamps).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>

#include "api/api.hpp"
#include "common/constants.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::spice {
namespace {

TEST(Ac, RcLowpassPole) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, 1e-6);

  AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e5;
  opts.points = 20;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;

  const double fc = 1.0 / (2.0 * kPi * 1e3 * 1e-6);  // ~159 Hz
  for (std::size_t k = 0; k < res.freq.size(); ++k) {
    const double f = res.freq[k];
    const double expected = 1.0 / std::sqrt(1.0 + (f / fc) * (f / fc));
    EXPECT_NEAR(std::abs(res.at(k, out)), expected, 1e-6) << "f=" << f;
  }
}

TEST(Ac, RcPhaseAtPole) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, 1e-6);
  const double fc = 1.0 / (2.0 * kPi * 1e3 * 1e-6);

  AcOptions opts;
  opts.sweep = SweepKind::linear;
  opts.f_start = fc;
  opts.f_stop = fc;
  opts.points = 2;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(res.phase_deg(0, out), -45.0, 0.1);
}

TEST(Ac, SeriesRlcResonancePeak) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  const int mid = ckt.add_node("mid", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  const double r = 10.0;
  const double l = 1e-3;
  const double c = 1e-6;
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, mid, r);
  ckt.add<Inductor>("L1", mid, out, l);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, c);

  const double f0 = 1.0 / (2.0 * kPi * std::sqrt(l * c));
  AcOptions opts;
  opts.sweep = SweepKind::linear;
  opts.f_start = f0;
  opts.f_stop = f0;
  opts.points = 2;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  // At resonance |v(out)| = Q = (1/R) sqrt(L/C).
  const double q = std::sqrt(l / c) / r;
  EXPECT_NEAR(std::abs(res.at(0, out)), q, 0.02 * q);
}

TEST(Ac, AcPhaseSourceRotates) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 2.0, 90.0);
  ckt.add<Resistor>("R1", in, Circuit::kGround, 1.0);
  AcOptions opts;
  opts.sweep = SweepKind::linear;
  opts.f_start = 10.0;
  opts.f_stop = 10.0;
  opts.points = 2;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(res.at(0, in).real(), 0.0, 1e-9);
  EXPECT_NEAR(res.at(0, in).imag(), 2.0, 1e-9);
}

TEST(Ac, DecadeSweepCoversRange) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, Circuit::kGround, 1.0);
  AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e3;
  opts.points = 10;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.freq.front(), 1.0, 1e-12);
  EXPECT_NEAR(res.freq.back(), 1e3, 1e-9);
  EXPECT_GE(res.freq.size(), 30u);
}

TEST(Ac, EqualEndsVisitTheFrequencyOnce) {
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, Circuit::kGround, 1.0);
  for (const SweepKind kind : {SweepKind::linear, SweepKind::decade}) {
    AcOptions opts;
    opts.sweep = kind;
    opts.f_start = 123.0;
    opts.f_stop = 123.0;
    opts.points = 5;
    EXPECT_EQ(opts.frequency_count(), 1.0);
    const AcResult res = api::ac_sweep(ckt, opts);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.freq.size(), 1u);
    ASSERT_EQ(res.x.size(), 1u);
    EXPECT_EQ(res.freq[0], 123.0);
  }
}

TEST(Ac, GridEndsOnTheCardsLastFrequency) {
  // run_ac visits AcOptions::frequencies() exactly; a one-frequency card at
  // its back() reproduces the full sweep's last row bit for bit (dense).
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, 1e-6);
  AcOptions opts;
  opts.f_start = 10.0;
  opts.f_stop = 1e4;
  opts.points = 5;
  const std::vector<double> grid = opts.frequencies();
  ASSERT_EQ(static_cast<double>(grid.size()), opts.frequency_count());
  const AcResult full = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(full.ok) << full.error;
  ASSERT_EQ(full.freq, grid);

  AcOptions one = opts;
  one.f_start = one.f_stop = grid.back();
  const AcResult last = api::ac_sweep(ckt, one);
  ASSERT_TRUE(last.ok) << last.error;
  ASSERT_EQ(last.freq.size(), 1u);
  EXPECT_EQ(last.freq[0], full.freq.back());
  EXPECT_EQ(last.at(0, out), full.at(full.freq.size() - 1, out));
}

TEST(Ac, AccessorsThrowOutOfRangeAndReadGroundAsZero) {
  // AcResult::at, magnitude_db and phase_deg share TranResult's contract:
  // ground reads 0 at any frequency, an unknown or frequency index out of
  // range throws instead of reading past the vectors.
  Circuit ckt;
  const int in = ckt.add_node("in", Nature::electrical);
  const int out = ckt.add_node("out", Nature::electrical);
  ckt.add<VSource>("V1", in, Circuit::kGround, std::make_unique<DcWave>(0.0),
                   Nature::electrical, 1.0, 0.0);
  ckt.add<Resistor>("R1", in, out, 1e3);
  ckt.add<Capacitor>("C1", out, Circuit::kGround, 1e-6);
  AcOptions opts;
  opts.f_start = 10.0;
  opts.f_stop = 1e3;
  opts.points = 3;
  const AcResult res = api::ac_sweep(ckt, opts);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_FALSE(res.freq.empty());

  EXPECT_EQ(res.at(0, Circuit::kGround), std::complex<double>(0.0));
  EXPECT_EQ(res.at(res.freq.size(), Circuit::kGround), std::complex<double>(0.0));
  EXPECT_EQ(res.magnitude_db(0, Circuit::kGround), -HUGE_VAL);

  const int bogus = ckt.unknown_count();
  EXPECT_THROW(res.at(0, bogus), std::out_of_range);
  EXPECT_THROW(res.magnitude_db(0, bogus), std::out_of_range);
  EXPECT_THROW(res.phase_deg(0, bogus), std::out_of_range);
  EXPECT_THROW(res.at(res.freq.size(), out), std::out_of_range);
  EXPECT_THROW(res.magnitude_db(res.freq.size(), out), std::out_of_range);
  EXPECT_THROW(res.phase_deg(res.freq.size(), out), std::out_of_range);

  // An empty result (failed run) has no frequency to read.
  AcResult empty;
  EXPECT_THROW(empty.at(0, 0), std::out_of_range);
}

}  // namespace
}  // namespace usys::spice
