#include "util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace braidio::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsApproximate) {
  Rng rng(11);
  const int n = 200'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(2.0, 3.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesTheory) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
  EXPECT_THROW(rng.exponential(-1.0), std::domain_error);
}

// Pins the exact output stream: xoshiro256** seeded by four SplitMix64
// steps, uniform_int's bitmask rejection, uniform()'s top 53 bits and the
// polar gaussian(). The values were computed by an independent reference
// implementation and must reproduce bit-for-bit on every platform and
// standard library (gaussian() to a few ulps of libm's log). If this test
// fails, the change silently re-randomised every seeded experiment.
TEST(Rng, UniformIntStreamPinnedBitForBit) {
  Rng rng(2016);
  const std::uint64_t expected[] = {
      829344u, 879074u, 435035u, 439793u,
      826300u, 328402u, 174538u, 221462u,
  };
  for (std::uint64_t want : expected) {
    EXPECT_EQ(rng.uniform_int(0, 999'999), want);
  }

  // A span whose mask spans well past 32 bits, exercising the wide path.
  Rng wide(7);
  const std::uint64_t expected_wide[] = {
      4'261'205'149'274u,
      7'143'133'363'410u,
      4'614'570'215'830u,
      1'494'432'973'376u,
  };
  for (std::uint64_t want : expected_wide) {
    EXPECT_EQ(wide.uniform_int(1'000'000'000'000u, 9'000'000'000'000u), want);
  }

  // The full span returns the raw draws.
  constexpr std::uint64_t kFull = std::numeric_limits<std::uint64_t>::max();
  Rng raw(2016);
  const std::uint64_t expected_raw[] = {
      0x2783899f312ca7a0u, 0x0624859da8fd69e2u,
      0xb6d231296dd6a35bu, 0xd160cd437036b5f1u,
  };
  for (std::uint64_t want : expected_raw) {
    EXPECT_EQ(raw.uniform_int(0, kFull), want);
  }

  // uniform() is the top 53 bits of the same draws, scaled by 2^-53.
  Rng unit(2016);
  const double expected_unit[] = {
      0x1.3c1c4cf989650p-3, 0x1.8921676a3f5a0p-6,
      0x1.6da46252dbad4p-1, 0x1.a2c19a86e06d6p-1,
  };
  for (double want : expected_unit) EXPECT_EQ(unit.uniform(), want);

  // gaussian(): the polar pair (y, x) from each accepted point.
  Rng normal(2016);
  const double expected_normal[] = {
      0.855215559966531, 0.5761231500259973,
      1.3129623392744039, 0.6901228081128474,
  };
  for (double want : expected_normal) {
    EXPECT_DOUBLE_EQ(normal.gaussian(), want);
  }

  // Degenerate span: lo == hi must not consume entropy-independent paths
  // differently across platforms — it is a single deterministic value.
  Rng fixed(3);
  EXPECT_EQ(fixed.uniform_int(42, 42), 42u);
}

// Sweep points and net nodes are keyed by stream_seed; the generator
// behind Rng may change, this derivation may not.
TEST(Rng, StreamSeedDerivationPinned) {
  EXPECT_EQ(Rng::stream_seed(1, 0), 0x5e41ab087439611eu);
  EXPECT_EQ(Rng::stream_seed(1, 1), 0xf18d6ce93d6cf1eeu);
  EXPECT_EQ(Rng::stream_seed(1, 10'000), 0x0b7271f2bfb4ad21u);
  EXPECT_EQ(Rng::stream_seed(4242, 0), 0x3912f31db371db88u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform() == child.uniform()) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace braidio::util
