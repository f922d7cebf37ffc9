#include "core/braidio_radio.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "util/units.hpp"

namespace braidio::core {
namespace {

class RadioTest : public ::testing::Test {
 protected:
  const hal::Capabilities& caps_ = backends::braidio_backend().caps();
  PowerTable table_;
  hal::StandardRadio radio_{"watch", 1, util::WattHours(0.78), caps_};
};

TEST_F(RadioTest, StartsIdleAtFloorPower) {
  EXPECT_FALSE(radio_.operating_point().has_value());
  EXPECT_FALSE(radio_.role().has_value());
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), caps_.sleep_power.value());
  EXPECT_DOUBLE_EQ(caps_.sleep_power.value(), 2e-6);
  EXPECT_EQ(radio_.name(), "watch");
  EXPECT_EQ(radio_.address(), 1);
}

TEST_F(RadioTest, PowerDrawFollowsRoleAndMode) {
  const auto& bs = table_.candidate(phy::LinkMode::Backscatter,
                                    phy::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(bs, Role::DataTransmitter));
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), bs.tx_power_w);  // tag: ~36 uW
  ASSERT_TRUE(radio_.switch_to(bs, Role::DataReceiver));
  // Carrier side: 129 mW.
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), bs.rx_power_w);
}

TEST_F(RadioTest, SwitchChargesTable5OverheadOncePerTransition) {
  const auto& active =
      table_.candidate(phy::LinkMode::Active, phy::Bitrate::M1);
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.switch_to(active, Role::DataTransmitter));
  const double cost1 = before - radio_.battery().remaining_joules();
  EXPECT_NEAR(cost1, table_.switch_overhead(phy::LinkMode::Active).tx_joules,
              1e-12);
  EXPECT_EQ(radio_.mode_switches(), 1u);
  // Same mode + role again: no charge.
  ASSERT_TRUE(radio_.switch_to(active, Role::DataTransmitter));
  EXPECT_EQ(radio_.mode_switches(), 1u);
  EXPECT_NEAR(radio_.battery().remaining_joules(), before - cost1, 1e-12);
  // Rate change within the mode is free too (no RF chain power-down).
  const auto& active_slow =
      table_.candidate(phy::LinkMode::Active, phy::Bitrate::k10);
  ASSERT_TRUE(radio_.switch_to(active_slow, Role::DataTransmitter));
  EXPECT_EQ(radio_.mode_switches(), 1u);
  // Role flip within a mode costs a transition.
  ASSERT_TRUE(radio_.switch_to(active, Role::DataReceiver));
  EXPECT_EQ(radio_.mode_switches(), 2u);
}

TEST_F(RadioTest, AdvanceDrainsBatteryAndLedger) {
  const auto& passive =
      table_.candidate(phy::LinkMode::PassiveRx, phy::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(passive, Role::DataTransmitter));
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.advance(util::Seconds(10.0)));  // holding the carrier
  EXPECT_NEAR(before - radio_.battery().remaining_joules(), 1.29, 1e-9);
  EXPECT_NEAR(
      radio_.ledger().joules(energy::EnergyCategory::CarrierGeneration),
      1.29, 1e-9);
  EXPECT_THROW(radio_.advance(util::Seconds(-1.0)), std::invalid_argument);
}

TEST_F(RadioTest, LedgerCategoriesByModeAndRole) {
  using energy::EnergyCategory;
  const auto& bs = table_.candidate(phy::LinkMode::Backscatter,
                                    phy::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(bs, Role::DataTransmitter));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::BackscatterTx), 0.0);
  ASSERT_TRUE(radio_.switch_to(bs, Role::DataReceiver));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::CarrierGeneration), 0.0);
  const auto& active =
      table_.candidate(phy::LinkMode::Active, phy::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(active, Role::DataReceiver));
  ASSERT_TRUE(radio_.advance(util::Seconds(1.0)));
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::ActiveRx), 0.0);
  EXPECT_GT(radio_.ledger().joules(EnergyCategory::ModeSwitch), 0.0);
}

TEST_F(RadioTest, BatteryDeathDuringAdvanceGoesIdle) {
  hal::StandardRadio tiny("band", 2, util::WattHours(1e-6), caps_);  // 3.6 mJ
  const auto& active = table_.candidate(phy::LinkMode::Active,
                                        phy::Bitrate::M1);
  ASSERT_TRUE(tiny.switch_to(active, Role::DataTransmitter));
  // 94.56 mW drains 3.6 mJ in ~38 ms; a 1 s advance must fail.
  EXPECT_FALSE(tiny.advance(util::Seconds(1.0)));
  EXPECT_TRUE(tiny.battery().empty());
  EXPECT_FALSE(tiny.operating_point().has_value());
  EXPECT_DOUBLE_EQ(tiny.power_draw().value(), caps_.sleep_power.value());
}

TEST_F(RadioTest, IdleAdvanceUsesFloor) {
  const double before = radio_.battery().remaining_joules();
  ASSERT_TRUE(radio_.advance(util::Seconds(100.0)));
  EXPECT_NEAR(before - radio_.battery().remaining_joules(),
              100.0 * caps_.sleep_power.value(), 1e-12);
  EXPECT_GT(radio_.ledger().joules(energy::EnergyCategory::Idle), 0.0);
}

TEST_F(RadioTest, GoIdleStopsModeDraw) {
  const auto& active =
      table_.candidate(phy::LinkMode::Active, phy::Bitrate::M1);
  ASSERT_TRUE(radio_.switch_to(active, Role::DataTransmitter));
  radio_.go_idle();
  EXPECT_DOUBLE_EQ(radio_.power_draw().value(), caps_.sleep_power.value());
}

TEST(RoleNames, Stable) {
  EXPECT_STREQ(to_string(Role::DataTransmitter), "tx");
  EXPECT_STREQ(to_string(Role::DataReceiver), "rx");
}

}  // namespace
}  // namespace braidio::core
