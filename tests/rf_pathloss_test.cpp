#include "rf/pathloss.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "rf/constants.hpp"
#include "util/units.hpp"

namespace braidio::rf {
namespace {

TEST(Friis, MatchesClosedFormAt915MHz) {
  // FSPL(dB) = 20 log10(d) + 20 log10(f) - 147.55.
  const double d = 2.0;
  const double expected_db = 20.0 * std::log10(d) +
                             20.0 * std::log10(kCarrierFrequencyHz) - 147.55;
  EXPECT_NEAR(-util::linear_to_db(friis_gain(d, kCarrierFrequencyHz)),
              expected_db, 0.01);
}

TEST(Friis, InverseSquareScaling) {
  const double g1 = friis_gain(1.0, kCarrierFrequencyHz);
  const double g2 = friis_gain(2.0, kCarrierFrequencyHz);
  const double g4 = friis_gain(4.0, kCarrierFrequencyHz);
  EXPECT_NEAR(g1 / g2, 4.0, 1e-9);
  EXPECT_NEAR(g2 / g4, 4.0, 1e-9);
}

TEST(Friis, AntennaGainsMultiply) {
  const double base = friis_gain(3.0, kCarrierFrequencyHz);
  const double with_gain = friis_gain(3.0, kCarrierFrequencyHz, 3.0, 3.0);
  EXPECT_NEAR(with_gain / base, util::db_to_linear(6.0), 1e-9);
}

TEST(Friis, NearFieldClampAndCeiling) {
  // Below the clamp the gain must stop growing.
  EXPECT_DOUBLE_EQ(friis_gain(0.0, kCarrierFrequencyHz),
                   friis_gain(0.05, kCarrierFrequencyHz));
  // Passive link can never deliver more power than transmitted.
  EXPECT_LE(friis_gain(0.001, kCarrierFrequencyHz, 30.0, 30.0), 1.0);
}

TEST(Friis, RejectsBadArguments) {
  EXPECT_THROW(friis_gain(-1.0, kCarrierFrequencyHz), std::domain_error);
  EXPECT_THROW(friis_gain(1.0, 0.0), std::domain_error);
}

TEST(Backscatter, FourthPowerScaling) {
  const double g1 = backscatter_gain(1.0, kCarrierFrequencyHz);
  const double g2 = backscatter_gain(2.0, kCarrierFrequencyHz);
  EXPECT_NEAR(g1 / g2, 16.0, 1e-9);
}

TEST(Backscatter, AlwaysBelowOneWayLoss) {
  for (double d : {0.3, 0.9, 1.8, 2.4}) {
    EXPECT_LT(backscatter_gain(d, kCarrierFrequencyHz),
              friis_gain(d, kCarrierFrequencyHz))
        << "at d=" << d;
  }
}

TEST(Backscatter, ModulationLossApplies) {
  const double lossless =
      backscatter_gain(1.0, kCarrierFrequencyHz, 0.0, 0.0, 0.0);
  const double lossy =
      backscatter_gain(1.0, kCarrierFrequencyHz, 0.0, 0.0, 6.0);
  EXPECT_NEAR(lossless / lossy, util::db_to_linear(6.0), 1e-9);
}

TEST(Backscatter, IsRoundTripOfFriis) {
  // With equal antenna gains and no modulation loss, the radar gain equals
  // the square of the one-way gain.
  const double d = 1.7;
  const double one_way = friis_gain(d, kCarrierFrequencyHz);
  const double round_trip =
      backscatter_gain(d, kCarrierFrequencyHz, 0.0, 0.0, 0.0);
  EXPECT_NEAR(round_trip, one_way * one_way, 1e-12);
}

class PathlossMonotonic : public ::testing::TestWithParam<double> {};

TEST_P(PathlossMonotonic, GainDecreasesWithDistance) {
  const double d = GetParam();
  EXPECT_GT(friis_gain(d, kCarrierFrequencyHz),
            friis_gain(d * 1.5, kCarrierFrequencyHz));
  EXPECT_GT(backscatter_gain(d, kCarrierFrequencyHz),
            backscatter_gain(d * 1.5, kCarrierFrequencyHz));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PathlossMonotonic,
                         ::testing::Values(0.1, 0.3, 0.9, 1.8, 2.4, 3.9, 5.1,
                                           6.0, 10.0));

}  // namespace
}  // namespace braidio::rf
