#include "util/rng.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

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

TEST(Rng, PhaseWithinCircle) {
  Rng rng(29);
  for (int i = 0; i < 10'000; ++i) {
    const double p = rng.phase();
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 2.0 * std::numbers::pi);
  }
}

// Pins the exact output stream of uniform_int. The implementation uses
// bitmask rejection sampling on the raw engine (not the stdlib's
// implementation-defined std::uniform_int_distribution), so these values
// must reproduce bit-for-bit on every platform and stdlib. If this test
// fails, the change silently re-randomised every seeded experiment.
TEST(Rng, UniformIntStreamPinnedBitForBit) {
  Rng rng(2016);
  const std::uint64_t expected[] = {
      494592u,  43785u,  54216u,  351193u,
      332690u, 77789u, 313035u, 391672u,
  };
  for (std::uint64_t want : expected) {
    EXPECT_EQ(rng.uniform_int(0, 999'999), want);
  }

  // A span whose mask spans well past 32 bits, exercising the wide path.
  Rng wide(7);
  const std::uint64_t expected_wide[] = {
      6'711'960'922'535u,
      6'227'518'977'998u,
      5'418'883'779'830u,
      7'399'534'684'524u,
  };
  for (std::uint64_t want : expected_wide) {
    EXPECT_EQ(wide.uniform_int(1'000'000'000'000u, 9'000'000'000'000u), want);
  }

  // Degenerate span: lo == hi must not consume entropy-independent paths
  // differently across platforms — it is a single deterministic value.
  Rng fixed(3);
  EXPECT_EQ(fixed.uniform_int(42, 42), 42u);
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
