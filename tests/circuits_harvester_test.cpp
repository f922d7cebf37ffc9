#include "circuits/harvester.hpp"

#include <gtest/gtest.h>

#include "rf/constants.hpp"
#include "util/units.hpp"

namespace braidio::circuits {
namespace {

TEST(Harvester, EfficiencyShapesCorrectly) {
  Harvester h;
  // Below sensitivity: nothing.
  EXPECT_DOUBLE_EQ(h.efficiency(-30.0), 0.0);
  // At the half-efficiency point: half the peak.
  EXPECT_NEAR(h.efficiency(-10.0), 0.15, 1e-9);
  // Strong input: approaches the peak.
  EXPECT_NEAR(h.efficiency(20.0), 0.30, 0.01);
  // Monotone.
  double prev = 0.0;
  for (double dbm = -20.0; dbm <= 20.0; dbm += 1.0) {
    const double e = h.efficiency(dbm);
    EXPECT_GE(e + 1e-12, prev);
    prev = e;
  }
}

TEST(Harvester, HarvestedPowerKnownPoint) {
  Harvester h;
  // At 0 dBm (1 mW) incident, efficiency ~0.277 -> ~277 uW.
  EXPECT_NEAR(h.harvested_watts(0.0) * 1e6, 277.0, 5.0);
}

TEST(Harvester, BatteryFreeTagRange) {
  // Can the Braidio tag end (16.5 uW at 10 kbps) run off the remote
  // 13 dBm carrier alone? Only at very short range — matching why the
  // paper keeps a (small) battery at the tag end.
  Harvester h;
  const double range = h.battery_free_range_m(
      16.5e-6, rf::kCarrierTxPowerDbm, rf::kCarrierFrequencyHz,
      rf::kChipAntennaGainDbi);
  EXPECT_GT(range, 0.1);
  EXPECT_LT(range, 1.0);
  // A lighter duty-cycled load stretches farther.
  const double light = h.battery_free_range_m(
      1e-6, rf::kCarrierTxPowerDbm, rf::kCarrierFrequencyHz,
      rf::kChipAntennaGainDbi);
  EXPECT_GT(light, range);
}

TEST(Harvester, RangeMonotoneInCarrierPower) {
  Harvester h;
  const double lo = h.battery_free_range_m(16.5e-6, 13.0, 915e6);
  const double hi = h.battery_free_range_m(16.5e-6, 30.0, 915e6);
  EXPECT_GT(hi, lo);
}

TEST(Harvester, ImpossibleLoadGivesZero) {
  Harvester h;
  EXPECT_DOUBLE_EQ(h.battery_free_range_m(1.0, 13.0, 915e6), 0.0);
}

TEST(Harvester, Validation) {
  HarvesterConfig bad;
  bad.peak_efficiency = 0.0;
  EXPECT_THROW(Harvester{bad}, std::invalid_argument);
  HarvesterConfig inverted;
  inverted.sensitivity_dbm = 0.0;
  EXPECT_THROW(Harvester{inverted}, std::invalid_argument);
  Harvester h;
  EXPECT_THROW(h.battery_free_range_m(0.0, 13.0, 915e6),
               std::invalid_argument);
}

TEST(Harvester, ConsistentWithKarthausFischerFloor) {
  // The paper's charge-pump citation: a fully integrated passive
  // transponder runs from 16.7 uW minimum RF input. At that input our
  // (conservative) efficiency curve still nets sub-uW — enough for a
  // duty-cycled transponder core, and well above the startup floor.
  Harvester h;
  const double in_dbm = util::watts_to_dbm(16.7e-6);
  EXPECT_GT(in_dbm, h.config().sensitivity_dbm);
  EXPECT_GT(h.harvested_watts(in_dbm), 3e-7);
}

}  // namespace
}  // namespace braidio::circuits
