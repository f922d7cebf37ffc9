#include "util/units.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace braidio::util {
namespace {

TEST(Units, DbmToWattsKnownPoints) {
  EXPECT_DOUBLE_EQ(dbm_to_watts(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(dbm_to_watts(30.0), 1.0);
  EXPECT_NEAR(dbm_to_watts(13.0), 19.95e-3, 0.05e-3);  // SI4432 carrier
  EXPECT_NEAR(dbm_to_watts(-30.0), 1e-6, 1e-12);
}

TEST(Units, WattsToDbmKnownPoints) {
  EXPECT_DOUBLE_EQ(watts_to_dbm(1e-3), 0.0);
  EXPECT_DOUBLE_EQ(watts_to_dbm(1.0), 30.0);
  EXPECT_NEAR(watts_to_dbm(0.129), 21.1, 0.05);  // Braidio carrier end
}

TEST(Units, WattsToDbmRejectsNonPositive) {
  EXPECT_THROW(watts_to_dbm(0.0), std::domain_error);
  EXPECT_THROW(watts_to_dbm(-1.0), std::domain_error);
}

TEST(Units, DbLinearInversePair) {
  for (double db : {-40.0, -6.0, 0.0, 3.0, 20.0, 50.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, LinearToDbRejectsNonPositive) {
  EXPECT_THROW(linear_to_db(0.0), std::domain_error);
  EXPECT_THROW(linear_to_db(-2.0), std::domain_error);
}

TEST(Units, WhJoulesRoundTrip) {
  EXPECT_DOUBLE_EQ(wh_to_joules(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(joules_to_wh(3600.0), 1.0);
  EXPECT_DOUBLE_EQ(joules_to_wh(wh_to_joules(99.5)), 99.5);
}

TEST(Units, PowerScaleHelpers) {
  EXPECT_DOUBLE_EQ(mw_to_watts(129.0), 0.129);
  EXPECT_DOUBLE_EQ(uw_to_watts(16.0), 16e-6);
  EXPECT_DOUBLE_EQ(watts_to_mw(0.129), 129.0);
  EXPECT_DOUBLE_EQ(watts_to_uw(16e-6), 16.0);
}

TEST(Units, WavelengthAt915MHz) {
  EXPECT_NEAR(wavelength_m(915e6), 0.3276, 1e-3);
  EXPECT_THROW(wavelength_m(0.0), std::domain_error);
}

// -------------------------------------------------------------------
// Strong unit types (Quantity<Tag>).
// -------------------------------------------------------------------

TEST(Quantity, ConstructionAndExtraction) {
  const Joules j{1.25};
  EXPECT_DOUBLE_EQ(j.value(), 1.25);
  EXPECT_DOUBLE_EQ(Joules{}.value(), 0.0);
  EXPECT_TRUE(std::isnan(Seconds::nan().value()));
}

TEST(Quantity, SameUnitArithmetic) {
  const Joules a{3.0}, b{1.5};
  EXPECT_EQ(a + b, Joules{4.5});
  EXPECT_EQ(a - b, Joules{1.5});
  EXPECT_EQ(-a, Joules{-3.0});
  EXPECT_DOUBLE_EQ(a / b, 2.0);  // like-unit ratio is dimensionless
  EXPECT_EQ(a * 2.0, Joules{6.0});
  EXPECT_EQ(2.0 * a, Joules{6.0});
  EXPECT_EQ(a / 2.0, Joules{1.5});
  Joules acc{1.0};
  acc += Joules{2.0};
  acc -= Joules{0.5};
  EXPECT_EQ(acc, Joules{2.5});
}

TEST(Quantity, ComparisonsAndNanOrdering) {
  EXPECT_LT(Seconds{1.0}, Seconds{2.0});
  EXPECT_GE(Watts{0.129}, Watts{0.129});
  // partial_ordering: NaN compares unordered, never equal.
  EXPECT_FALSE(Seconds::nan() == Seconds::nan());
  EXPECT_FALSE(Seconds::nan() < Seconds{0.0});
  EXPECT_FALSE(Seconds::nan() > Seconds{0.0});
}

TEST(Quantity, DimensionalRelations) {
  // E = P * t and rearrangements, bit-identical to raw double math.
  EXPECT_EQ(Watts{0.129} * Seconds{10.0}, Joules{0.129 * 10.0});
  EXPECT_EQ(Seconds{10.0} * Watts{0.129}, Joules{0.129 * 10.0});
  EXPECT_EQ(Joules{1.29} / Seconds{10.0}, Watts{1.29 / 10.0});
  EXPECT_EQ(Joules{1.29} / Watts{0.129}, Seconds{1.29 / 0.129});
}

TEST(Quantity, CheckedConversionsMatchDoubleHelpers) {
  // The typed conversions route through the double helpers, so results
  // are bit-identical — the migration contract for telemetry baselines.
  for (double wh : {0.26, 0.78, 6.55, 99.5}) {
    EXPECT_EQ(to_joules(WattHours(wh)).value(), wh_to_joules(wh));
    EXPECT_EQ(to_watt_hours(Joules(wh_to_joules(wh))).value(),
              joules_to_wh(wh_to_joules(wh)));
    EXPECT_DOUBLE_EQ(to_watt_hours(to_joules(WattHours(wh))).value(), wh);
  }
  for (double dbm : {-30.0, 0.0, 13.0, 21.1}) {
    EXPECT_EQ(to_watts(Dbm(dbm)).value(), dbm_to_watts(dbm));
    EXPECT_NEAR(to_dbm(to_watts(Dbm(dbm))).value(), dbm, 1e-9);
  }
  EXPECT_EQ(to_dbm(Watts(0.129)).value(), watts_to_dbm(0.129));
}

TEST(Quantity, ToDbmRejectsNonPositivePower) {
  EXPECT_THROW(to_dbm(Watts(0.0)), std::domain_error);
  EXPECT_THROW(to_dbm(Watts(-1.0)), std::domain_error);
}

TEST(Quantity, UnitLiterals) {
  EXPECT_EQ(1.5_J, Joules{1.5});
  EXPECT_EQ(2_s, Seconds{2.0});
  EXPECT_EQ(0.129_W, Watts{0.129});
  EXPECT_EQ(-30.0_dBm, Dbm{-30.0});
  EXPECT_EQ(915e6_Hz, Hertz{915e6});
  EXPECT_EQ(0.78_Wh, WattHours{0.78});
}

TEST(Quantity, ConstexprUsable) {
  constexpr Joules e = Watts{2.0} * Seconds{3.0};
  static_assert(e.value() == 6.0);
  static_assert((1.0_Wh).value() == 1.0);
  SUCCEED();
}

class DbRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DbRoundTrip, DbmWattsInverse) {
  const double dbm = GetParam();
  EXPECT_NEAR(watts_to_dbm(dbm_to_watts(dbm)), dbm, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbRoundTrip,
                         ::testing::Values(-120.0, -80.0, -40.0, -13.0, 0.0,
                                           13.0, 17.0, 23.0, 30.0));

}  // namespace
}  // namespace braidio::util
