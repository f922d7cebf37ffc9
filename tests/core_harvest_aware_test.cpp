#include "core/harvest_aware.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"

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

TEST_F(HarvestAwareTest, CloseRangeTagIsEnergyNeutral) {
  // At 15 cm the banked ~70 uW cover the tag's draw entirely.
  const double credit = harvested_power_w({}, 0.15);
  for (const auto& c : map_.available_best_rate(0.15)) {
    if (c.mode == phy::LinkMode::Backscatter) {
      EXPECT_GE(credit, c.tx_power_w);
    }
  }
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
  // At 2 m the harvest no longer covers the tag: its net draw is positive.
  const double credit = harvested_power_w({}, 2.0);
  for (const auto& c : map_.available_best_rate(2.0)) {
    if (c.mode == phy::LinkMode::Backscatter) {
      EXPECT_GT(c.tx_power_w - credit, 0.0);
    }
  }
}

}  // namespace
}  // namespace braidio::core
