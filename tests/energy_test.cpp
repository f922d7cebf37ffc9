#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "energy/battery.hpp"
#include "energy/device_catalog.hpp"
#include "energy/ledger.hpp"
#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::energy {
namespace {

TEST(Battery, StartsFullAndConverts) {
  Battery b(util::WattHours(1.0));
  EXPECT_DOUBLE_EQ(b.capacity_joules(), 3600.0);
  EXPECT_DOUBLE_EQ(b.capacity_wh(), 1.0);
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 3600.0);
  EXPECT_DOUBLE_EQ(b.fraction_remaining(), 1.0);
  EXPECT_FALSE(b.empty());
}

TEST(Battery, RejectsNonPositiveCapacity) {
  EXPECT_THROW(Battery(util::WattHours(0.0)), std::invalid_argument);
  EXPECT_THROW(Battery(util::WattHours(-1.0)), std::invalid_argument);
}

TEST(Battery, DrainClampsAtEmpty) {
  Battery b(util::WattHours(0.001));  // 3.6 J
  EXPECT_DOUBLE_EQ(b.drain(util::Joules(1.6)).value(), 1.6);
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 2.0);
  // only what's left
  EXPECT_DOUBLE_EQ(b.drain(util::Joules(5.0)).value(), 2.0);
  EXPECT_TRUE(b.empty());
  EXPECT_DOUBLE_EQ(b.drain(util::Joules(1.0)).value(), 0.0);
  EXPECT_THROW(b.drain(util::Joules(-1.0)), std::invalid_argument);
}

TEST(Battery, SecondsAtPower) {
  Battery b(util::WattHours(1.0));  // 3600 J
  EXPECT_DOUBLE_EQ(b.seconds_at(util::Watts(1.0)).value(), 3600.0);
  EXPECT_DOUBLE_EQ(b.seconds_at(util::Watts(0.129)).value(),
                   3600.0 / 0.129);
  EXPECT_TRUE(std::isinf(b.seconds_at(util::Watts(0.0)).value()));
  EXPECT_THROW(b.seconds_at(util::Watts(-0.1)), std::invalid_argument);
}

TEST(Battery, RechargeRestoresCapacity) {
  Battery b(util::WattHours(0.5));
  b.drain(util::Joules(1000.0));
  b.recharge();
  EXPECT_DOUBLE_EQ(b.fraction_remaining(), 1.0);
}

TEST(DeviceCatalog, HasTheTenFigure1Devices) {
  const auto& catalog = device_catalog();
  ASSERT_EQ(catalog.size(), 10u);
  EXPECT_EQ(catalog.front().name, "Nike Fuel Band");
  EXPECT_EQ(catalog.back().name, "MacBook Pro 15");
}

TEST(DeviceCatalog, OrderedByCapacity) {
  const auto& catalog = device_catalog();
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].battery_wh, catalog[i].battery_wh)
        << catalog[i - 1].name << " vs " << catalog[i].name;
  }
}

TEST(DeviceCatalog, SpanIsThreeOrdersOfMagnitude) {
  // Fig. 1: laptop batteries are ~3 orders of magnitude above fitness
  // bands.
  const double span = catalog_capacity_span();
  EXPECT_GT(span, 100.0);
  EXPECT_LT(span, 1000.0);
  EXPECT_NEAR(std::log10(span), 2.58, 0.35);
}

TEST(DeviceCatalog, LookupByName) {
  const auto phone = find_device("iPhone 6S");
  ASSERT_TRUE(phone.has_value());
  EXPECT_NEAR(phone->battery_wh, 6.55, 1e-9);
  EXPECT_FALSE(find_device("Nokia 3310").has_value());
}

TEST(DeviceCatalog, MakesFullBattery) {
  const auto spec = find_device("Apple Watch");
  ASSERT_TRUE(spec.has_value());
  Battery b = spec->make_battery();
  EXPECT_DOUBLE_EQ(b.capacity_wh(), spec->battery_wh);
}

TEST(Ledger, AccumulatesByCategory) {
  EnergyLedger ledger;
  ledger.charge(EnergyCategory::CarrierGeneration, util::Joules(1.5));
  ledger.charge(EnergyCategory::CarrierGeneration, util::Joules(0.5));
  ledger.charge(EnergyCategory::PassiveRx, util::Joules(0.25));
  EXPECT_DOUBLE_EQ(ledger.joules(EnergyCategory::CarrierGeneration), 2.0);
  EXPECT_DOUBLE_EQ(ledger.joules(EnergyCategory::PassiveRx), 0.25);
  EXPECT_DOUBLE_EQ(ledger.joules(EnergyCategory::Idle), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_joules(), 2.25);
}

TEST(Ledger, NanSimTimeSentinelIsAccepted) {
  // NaN sim time is the documented "caller tracks no sim time" sentinel;
  // it must keep working (it is the charge() default argument).
  EnergyLedger ledger;
  ledger.charge(EnergyCategory::Mcu, util::Joules(1.0),
                util::Seconds::nan());
  EXPECT_DOUBLE_EQ(ledger.total_joules(), 1.0);
}

#if BRAIDIO_CONTRACTS_ENABLED

TEST(LedgerDeathTest, RejectsNegativeAndNonFiniteJoules) {
  // A NaN posting used to slip through the old `joules < 0` throw check
  // (NaN compares false) and silently poison every downstream total.
  EnergyLedger ledger;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(ledger.charge(EnergyCategory::Mcu, util::Joules(-1.0)),
               "REQUIRE");
  EXPECT_DEATH(ledger.charge(EnergyCategory::Mcu, util::Joules(nan)),
               "REQUIRE");
  EXPECT_DEATH(ledger.charge(EnergyCategory::Mcu, util::Joules(inf)),
               "REQUIRE");
}

TEST(LedgerDeathTest, RejectsNonFiniteOrNegativeSimTime) {
  EnergyLedger ledger;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(ledger.charge(EnergyCategory::Mcu, util::Joules(1.0),
                             util::Seconds(inf)),
               "REQUIRE");
  EXPECT_DEATH(ledger.charge(EnergyCategory::Mcu, util::Joules(1.0),
                             util::Seconds(-2.0)),
               "REQUIRE");
}

#endif  // BRAIDIO_CONTRACTS_ENABLED

TEST(Ledger, ReportMentionsNonZeroCategoriesOnly) {
  EnergyLedger ledger;
  ledger.charge(EnergyCategory::BackscatterTx, util::Joules(1e-6));
  const auto report = ledger.report();
  EXPECT_NE(report.find("backscatter-tx"), std::string::npos);
  EXPECT_EQ(report.find("active-tx"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(Ledger, CategoryNamesAreStable) {
  EXPECT_STREQ(to_string(EnergyCategory::CarrierGeneration), "carrier");
  EXPECT_STREQ(to_string(EnergyCategory::ModeSwitch), "mode-switch");
}

}  // namespace
}  // namespace braidio::energy
