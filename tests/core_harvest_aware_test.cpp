#include "core/harvest_aware.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "plan/offload.hpp"

namespace braidio::core {
namespace {

class HarvestAwareTest : public ::testing::Test {
 protected:
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(HarvestAwareTest, HarvestedPowerDecaysWithDistance) {
  HarvestAwareConfig cfg;
  double prev = 1e9;
  for (double d : {0.1, 0.3, 0.6, 1.0, 2.0}) {
    const double p = harvested_power_w(cfg, d);
    EXPECT_LT(p, prev) << d;
    prev = p;
  }
  // Far away: below the harvester's startup floor -> zero.
  EXPECT_DOUBLE_EQ(harvested_power_w(cfg, 20.0), 0.0);
}

TEST_F(HarvestAwareTest, CreditLandsOnTheNonCarrierEnd) {
  const auto raw = map_.available_best_rate(0.3);
  const auto adjusted = harvest_adjusted_candidates(map_, 0.3);
  ASSERT_EQ(adjusted.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    switch (raw[i].mode) {
      case phy::LinkMode::Backscatter:
        EXPECT_LT(adjusted[i].tx_power_w, raw[i].tx_power_w);
        EXPECT_DOUBLE_EQ(adjusted[i].rx_power_w, raw[i].rx_power_w);
        break;
      case phy::LinkMode::PassiveRx:
        EXPECT_LT(adjusted[i].rx_power_w, raw[i].rx_power_w);
        EXPECT_DOUBLE_EQ(adjusted[i].tx_power_w, raw[i].tx_power_w);
        break;
      case phy::LinkMode::Active:
        EXPECT_EQ(adjusted[i], raw[i]);
        break;
    }
  }
}

TEST_F(HarvestAwareTest, CloseRangeTagIsEnergyNeutral) {
  // At 15 cm the banked ~70 uW exceed the tag's draw entirely: the
  // adjusted tag power clamps to (near) zero, so the achievable
  // drain-ratio span explodes.
  const auto adjusted = harvest_adjusted_candidates(map_, 0.15);
  for (const auto& c : adjusted) {
    if (c.mode == phy::LinkMode::Backscatter) {
      EXPECT_LE(c.tx_power_w, 1e-9);
    }
  }
  // Planner consequence: a vanishing-energy transmitter can still be
  // served power-proportionally at an extreme ratio.
  const auto plan = plan::OffloadPlanner::plan(adjusted, 1.0, 1e7);
  EXPECT_TRUE(plan.proportional);
}

TEST_F(HarvestAwareTest, BreakEvenDistanceIsSubMeter) {
  const double d10k = tag_break_even_distance_m(map_, phy::Bitrate::k10);
  const double d1m = tag_break_even_distance_m(map_, phy::Bitrate::M1);
  EXPECT_GT(d10k, 0.1);
  EXPECT_LT(d10k, 1.0);
  // The faster tag draws more, so it breaks even closer in.
  EXPECT_LE(d1m, d10k);
}

TEST_F(HarvestAwareTest, WeakCarrierShrinksBreakEven) {
  HarvestAwareConfig weak;
  weak.carrier_dbm = 0.0;
  const double strong = tag_break_even_distance_m(map_, phy::Bitrate::k10);
  const double feeble =
      tag_break_even_distance_m(map_, phy::Bitrate::k10, weak);
  EXPECT_LT(feeble, strong);
}

TEST_F(HarvestAwareTest, BeyondBreakEvenCostsStayPositive) {
  const auto adjusted = harvest_adjusted_candidates(map_, 2.0);
  for (const auto& c : adjusted) {
    EXPECT_GT(c.tx_power_w, 0.0);
    EXPECT_GT(c.rx_power_w, 0.0);
  }
}

}  // namespace
}  // namespace braidio::core
