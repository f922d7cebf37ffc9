// Deadline-aware carrier offload: Eq. 1 + a minimum-throughput constraint.
#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "core/regimes.hpp"
#include "plan/offload.hpp"

namespace braidio::core {
namespace {

class DeadlineTest : public ::testing::Test {
 protected:
  std::vector<ModeCandidate> at(double d) {
    return map_.available_best_rate(d);
  }
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(DeadlineTest, ThroughputHelperMatchesMixArithmetic) {
  const auto candidates = at(0.5);  // all at 1 Mbps
  const auto plan = plan::OffloadPlanner::plan(candidates, 1.0, 1.0);
  EXPECT_NEAR(plan::plan_throughput_bps(plan), 1e6, 1.0);
  plan::OffloadPlan empty;
  EXPECT_DOUBLE_EQ(plan::plan_throughput_bps(empty), 0.0);
}

TEST_F(DeadlineTest, UnconstrainedOptimumReturnedWhenFastEnough) {
  const auto candidates = at(0.5);
  const auto base = plan::OffloadPlanner::plan(candidates, 3.0, 1.0);
  const auto dl = plan::OffloadPlanner::plan_with_min_throughput(
      candidates, 3.0, 1.0, 0.5e6);
  EXPECT_TRUE(dl.meets_throughput);
  EXPECT_NEAR(dl.total_joules_per_bit(), base.total_joules_per_bit(),
              1e-15);
}

// A candidate set with a real energy/throughput tension: a cheap but
// crawling braid (Y+Z at 10 kbps-dominated airtime) against an expensive
// fast symmetric mode (X at 1 Mbps).
std::vector<ModeCandidate> tension_candidates() {
  return {
      // X: symmetric 1 Mbps, 100 nJ/bit per end.
      {phy::LinkMode::Active, phy::Bitrate::M1, 0.1, 0.1},
      // Y: cheap 10 kbps point favoring the transmitter (5/20 nJ).
      {phy::LinkMode::Backscatter, phy::Bitrate::k10, 5e-5, 2e-4},
      // Z: 1 Mbps point favoring the receiver (200/50 nJ).
      {phy::LinkMode::PassiveRx, phy::Bitrate::M1, 0.2, 0.05},
  };
}

TEST_F(DeadlineTest, DeadlineBuysThroughputWithEnergy) {
  const auto candidates = tension_candidates();
  const auto lazy = plan::OffloadPlanner::plan(candidates, 1.0, 1.0);
  // Energy-optimal: the Y+Z braid at ~45 nJ total, crawling at ~11 kbps.
  ASSERT_TRUE(lazy.proportional);
  EXPECT_NEAR(lazy.total_joules_per_bit() * 1e9, 45.5, 1.0);
  ASSERT_LT(plan::plan_throughput_bps(lazy), 20e3);

  const auto fast = plan::OffloadPlanner::plan_with_min_throughput(
      candidates, 1.0, 1.0, 100e3);
  ASSERT_TRUE(fast.meets_throughput);
  EXPECT_TRUE(fast.proportional);
  EXPECT_GE(plan::plan_throughput_bps(fast), 100e3 * (1.0 - 1e-6));
  // Still exactly power-proportional...
  EXPECT_NEAR(fast.achieved_ratio(), 1.0, 1e-6);
  // ...more expensive than the lazy optimum, but cheaper than buying the
  // fast mode outright.
  EXPECT_GT(fast.total_joules_per_bit(), lazy.total_joules_per_bit());
  EXPECT_LT(fast.total_joules_per_bit(), 200e-9 * (1.0 + 1e-9));
}

TEST_F(DeadlineTest, TightnessIsMonotoneInTheDeadline) {
  double prev_cost = 0.0;
  for (double bps : {5e3, 50e3, 200e3, 800e3}) {
    const auto plan = plan::OffloadPlanner::plan_with_min_throughput(
        tension_candidates(), 1.0, 1.0, bps);
    if (!plan.meets_throughput) break;
    EXPECT_GE(plan.total_joules_per_bit(), prev_cost - 1e-18)
        << bps;
    prev_cost = plan.total_joules_per_bit();
  }
}

TEST_F(DeadlineTest, ImpossibleDeadlineReturnsFastestProportionalPlan) {
  const auto candidates = at(2.0);  // max rate 1 Mbps
  const auto plan = plan::OffloadPlanner::plan_with_min_throughput(
      candidates, 1.0, 1.0, 5e6);
  EXPECT_FALSE(plan.meets_throughput);
  EXPECT_TRUE(plan.proportional);
  // It should still be the fastest achievable proportional mix.
  const auto lazy = plan::OffloadPlanner::plan(candidates, 1.0, 1.0);
  EXPECT_GE(plan::plan_throughput_bps(plan),
            plan::plan_throughput_bps(lazy) * (1.0 - 1e-9));
}

TEST_F(DeadlineTest, TripleMixesAppearWhenNeeded) {
  // A tight deadline + exact proportionality generally needs all three
  // basic variables (the 3-equality LP corner).
  const auto candidates = tension_candidates();
  const auto plan = plan::OffloadPlanner::plan_with_min_throughput(
      candidates, 1.0, 1.0, 100e3);
  ASSERT_TRUE(plan.meets_throughput);
  EXPECT_EQ(plan.entries.size(), 3u);
  double frac = 0.0;
  for (const auto& e : plan.entries) frac += e.fraction;
  EXPECT_NEAR(frac, 1.0, 1e-9);
  // Analytic corner check: p_Y = 0.0909, p_Z = p_Y / 10, rest on X.
  for (const auto& e : plan.entries) {
    if (e.candidate.rate == phy::Bitrate::k10) {
      EXPECT_NEAR(e.fraction, 0.0909, 0.001);
    }
  }
}

TEST_F(DeadlineTest, Validation) {
  const auto candidates = at(0.5);
  EXPECT_THROW(plan::OffloadPlanner::plan_with_min_throughput(
                   candidates, 1.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(
      plan::OffloadPlanner::plan_with_min_throughput({}, 1.0, 1.0, 1e5),
      std::invalid_argument);
}

}  // namespace
}  // namespace braidio::core
