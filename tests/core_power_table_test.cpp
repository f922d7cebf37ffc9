#include "core/power_table.hpp"

#include <gtest/gtest.h>

#include "util/units.hpp"

namespace braidio::core {
namespace {

class PowerTableTest : public ::testing::Test {
 protected:
  PowerTable table_;
};

TEST_F(PowerTableTest, NineOperatingPoints) {
  EXPECT_EQ(table_.candidates().size(), 9u);
  for (auto mode : phy::kAllLinkModes) {
    for (auto rate : phy::kAllBitrates) {
      EXPECT_NO_THROW(table_.candidate(mode, rate));
    }
  }
}

TEST_F(PowerTableTest, HeadlineRatiosFromFigure14) {
  using phy::Bitrate;
  using phy::LinkMode;
  // Passive-RX: 1:2546, 1:4000, 1:5600.
  EXPECT_NEAR(1.0 / table_.candidate(LinkMode::PassiveRx, Bitrate::M1)
                        .efficiency_ratio(),
              2546.0, 0.5);
  EXPECT_NEAR(1.0 / table_.candidate(LinkMode::PassiveRx, Bitrate::k100)
                        .efficiency_ratio(),
              4000.0, 0.5);
  EXPECT_NEAR(1.0 / table_.candidate(LinkMode::PassiveRx, Bitrate::k10)
                        .efficiency_ratio(),
              5600.0, 0.5);
  // Backscatter: 3546:1, 5571:1, 7800:1.
  EXPECT_NEAR(table_.candidate(LinkMode::Backscatter, Bitrate::M1)
                  .efficiency_ratio(),
              3546.0, 0.5);
  EXPECT_NEAR(table_.candidate(LinkMode::Backscatter, Bitrate::k100)
                  .efficiency_ratio(),
              5571.0, 0.5);
  EXPECT_NEAR(table_.candidate(LinkMode::Backscatter, Bitrate::k10)
                  .efficiency_ratio(),
              7800.0, 0.5);
  // Active: 0.9524:1.
  EXPECT_NEAR(
      table_.candidate(LinkMode::Active, Bitrate::M1).efficiency_ratio(),
      0.9524, 1e-3);
}

TEST_F(PowerTableTest, PaperPowerEnvelope) {
  // "Braidio ... consumes between 16uW - 129mW across the different modes."
  EXPECT_NEAR(table_.max_power_w(), 0.129, 1e-9);
  EXPECT_NEAR(util::watts_to_uw(table_.min_power_w()), 16.5, 0.2);
}

TEST_F(PowerTableTest, CarrierHolderAlwaysPaysTheBudget) {
  using phy::LinkMode;
  for (auto rate : phy::kAllBitrates) {
    EXPECT_DOUBLE_EQ(table_.candidate(LinkMode::PassiveRx, rate).tx_power_w,
                     0.129);
    EXPECT_DOUBLE_EQ(
        table_.candidate(LinkMode::Backscatter, rate).rx_power_w, 0.129);
  }
}

TEST_F(PowerTableTest, PerBitCostsScaleInverselyWithBitrate) {
  using phy::Bitrate;
  using phy::LinkMode;
  const auto& fast = table_.candidate(LinkMode::PassiveRx, Bitrate::M1);
  const auto& slow = table_.candidate(LinkMode::PassiveRx, Bitrate::k10);
  // Same carrier power, 100x fewer bits/s -> 100x the TX per-bit cost.
  EXPECT_NEAR(slow.tx_joules_per_bit() / fast.tx_joules_per_bit(), 100.0,
              1e-9);
}

TEST_F(PowerTableTest, PassiveEndsAreMicrowattClass) {
  using phy::LinkMode;
  for (auto rate : phy::kAllBitrates) {
    EXPECT_LT(table_.candidate(LinkMode::PassiveRx, rate).rx_power_w, 60e-6);
    EXPECT_LT(table_.candidate(LinkMode::Backscatter, rate).tx_power_w,
              40e-6);
  }
}

TEST_F(PowerTableTest, Table5SwitchOverheads) {
  using phy::LinkMode;
  const auto& active = table_.switch_overhead(LinkMode::Active);
  EXPECT_NEAR(active.tx_joules, util::wh_to_joules(1.05e-9), 1e-12);
  EXPECT_NEAR(active.rx_joules, util::wh_to_joules(1.01e-9), 1e-12);
  const auto& passive = table_.switch_overhead(LinkMode::PassiveRx);
  EXPECT_NEAR(passive.rx_joules, util::wh_to_joules(4.40e-12), 1e-15);
  const auto& bs = table_.switch_overhead(LinkMode::Backscatter);
  EXPECT_NEAR(bs.tx_joules, util::wh_to_joules(8.58e-8), 1e-10);
  // Paper: "switching overhead is negligible" — sub-millijoule everywhere.
  EXPECT_LT(bs.tx_joules, 1e-3);
}

TEST_F(PowerTableTest, LabelsAreHumanReadable) {
  EXPECT_STREQ(
      table_.candidate(phy::LinkMode::Backscatter, phy::Bitrate::M1).label(),
      "backscatter@1M");
  EXPECT_STREQ(
      table_.candidate(phy::LinkMode::Active, phy::Bitrate::k10).label(),
      "active@10k");
}

TEST_F(PowerTableTest, ActiveModeNearSymmetric) {
  // Table 1's point, inverted: Braidio's active mode looks like Bluetooth.
  for (auto rate : phy::kAllBitrates) {
    const auto& c = table_.candidate(phy::LinkMode::Active, rate);
    EXPECT_GT(c.efficiency_ratio(), 0.8);
    EXPECT_LT(c.efficiency_ratio(), 1.25);
  }
}

TEST_F(PowerTableTest, BackscatterTagFloorIsThePaper16uW) {
  const auto& tag =
      table_.candidate(phy::LinkMode::Backscatter, phy::Bitrate::k10);
  EXPECT_NEAR(util::watts_to_uw(tag.tx_power_w), 16.5, 0.1);
}

}  // namespace
}  // namespace braidio::core
