// Determinism contract of the counter-based sweep RNG (common/rng.hpp):
// rng_draw_u64 is a pure function of (seed, counter, key), so streams must
// be bit-identical however the draws are ordered, threaded, or split — the
// property every Monte Carlo shard/resume test builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace usys {
namespace {

TEST(Rng, DrawIsPureAndSeedSensitive) {
  const std::uint64_t a = rng_draw_u64(42, 7, 1);
  EXPECT_EQ(a, rng_draw_u64(42, 7, 1));  // same inputs, same bits
  EXPECT_NE(a, rng_draw_u64(43, 7, 1));
  EXPECT_NE(a, rng_draw_u64(42, 8, 1));
  EXPECT_NE(a, rng_draw_u64(42, 7, 2));
}

TEST(Rng, NameHashIsStable) {
  // FNV-1a over the bytes: pin two values so an accidental hash change
  // (which would silently re-draw every netlist parameter) breaks loudly.
  EXPECT_EQ(rng_hash_name(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(rng_hash_name("gap"), 0xd4f05718fab6a2efull);
  EXPECT_EQ(rng_hash_name("gap"), rng_hash_name("gap"));
  EXPECT_NE(rng_hash_name("gap"), rng_hash_name("vdrive"));
}

TEST(Rng, Uniform01IsInHalfOpenUnitInterval) {
  for (std::uint64_t c = 0; c < 10'000; ++c) {
    const double u = rng_uniform01(1, c, 99);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMapsToRange) {
  for (std::uint64_t c = 0; c < 1'000; ++c) {
    const double v = rng_uniform(5, c, 1, -2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
  // Degenerate range collapses to the point.
  EXPECT_DOUBLE_EQ(rng_uniform(5, 0, 1, 4.0, 4.0), 4.0);
}

TEST(Rng, NormalMatchesMomentsAtN10k) {
  const double mu = 2.5;
  const double sigma = 0.75;
  const int n = 10'000;
  double sum = 0.0;
  double sq = 0.0;
  for (int c = 0; c < n; ++c) {
    const double x = rng_normal(123, static_cast<std::uint64_t>(c), 7, mu, sigma);
    EXPECT_TRUE(std::isfinite(x));
    sum += x;
    sq += (x - mu) * (x - mu);
  }
  // Standard error of the mean is sigma/sqrt(n) ~ 0.0075; allow 5 sigma.
  EXPECT_NEAR(sum / n, mu, 5.0 * sigma / std::sqrt(double(n)));
  EXPECT_NEAR(std::sqrt(sq / n), sigma, 0.05 * sigma);
}

TEST(Rng, InverseNormalCdfAccuracy) {
  // Round-trip against the forward CDF Phi(x) = 0.5*erfc(-x/sqrt(2)):
  // after the Halley refinement the inverse should be good to ~1e-12.
  for (double p : {1e-9, 1e-4, 0.025, 0.2, 0.5, 0.8, 0.975, 0.9999, 1 - 1e-9}) {
    const double x = inverse_normal_cdf(p);
    const double back = 0.5 * std::erfc(-x / std::sqrt(2.0));
    EXPECT_NEAR(back, p, 1e-12 + 1e-9 * p) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(inverse_normal_cdf(0.5), 0.0);
  EXPECT_EQ(inverse_normal_cdf(0.0), -HUGE_VAL);
  EXPECT_EQ(inverse_normal_cdf(1.0), HUGE_VAL);
  EXPECT_TRUE(std::isnan(inverse_normal_cdf(-0.1)));
  EXPECT_TRUE(std::isnan(inverse_normal_cdf(1.1)));
}

/// Draws counters [0, n) with `threads` workers picking work via an atomic
/// cursor — maximally racy scheduling, deterministic output slots.
std::vector<std::uint64_t> draw_parallel(std::uint64_t seed, std::uint64_t key,
                                         int n, int threads) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int c = next.fetch_add(1); c < n; c = next.fetch_add(1))
        out[static_cast<std::size_t>(c)] =
            rng_draw_u64(seed, static_cast<std::uint64_t>(c), key);
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

TEST(Rng, StreamsBitIdenticalAcrossThreadCounts) {
  const auto serial = draw_parallel(2026, 11, 4096, 1);
  EXPECT_EQ(serial, draw_parallel(2026, 11, 4096, 2));
  EXPECT_EQ(serial, draw_parallel(2026, 11, 4096, 8));
}

TEST(Rng, ShardedDrawsEqualUnshardedStream) {
  // Shard k of n owns counters c with c % n == k-1 (the sweep shard rule);
  // reassembling the shards must reproduce the unsharded stream exactly.
  const int n = 1000;
  const int shards = 3;
  std::vector<std::uint64_t> full(n);
  for (int c = 0; c < n; ++c)
    full[static_cast<std::size_t>(c)] = rng_draw_u64(9, static_cast<std::uint64_t>(c), 5);
  std::vector<std::uint64_t> stitched(n, 0);
  for (int k = 1; k <= shards; ++k) {
    for (int c = 0; c < n; ++c) {
      if (c % shards != k - 1) continue;
      stitched[static_cast<std::size_t>(c)] =
          rng_draw_u64(9, static_cast<std::uint64_t>(c), 5);
    }
  }
  EXPECT_EQ(full, stitched);
}

TEST(Rng, ResumeMidStreamIsBitIdentical) {
  // A "resume" replays arbitrary counters in arbitrary order: stateless
  // draws don't care. Draw backwards and compare to the forward stream.
  std::vector<double> forward;
  for (int c = 0; c < 257; ++c)
    forward.push_back(rng_normal(77, static_cast<std::uint64_t>(c), 3, 0.0, 1.0));
  for (int c = 256; c >= 0; --c)
    EXPECT_EQ(forward[static_cast<std::size_t>(c)],
              rng_normal(77, static_cast<std::uint64_t>(c), 3, 0.0, 1.0));
}

}  // namespace
}  // namespace usys
