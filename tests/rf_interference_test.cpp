#include "rf/interference.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "phy/link_budget.hpp"
#include "util/units.hpp"

namespace braidio::rf {
namespace {

TEST(Interference, LeakageBandpassShape) {
  EnvelopeInterferenceModel model;
  // Below the HP corner: mostly rejected (self-interference regime).
  EXPECT_LT(model.baseband_leakage(100.0), 0.01);
  // Exactly at the HP corner: half power.
  EXPECT_NEAR(model.baseband_leakage(2e3), 0.5, 0.01);
  // Mid-band: passes nearly intact.
  EXPECT_GT(model.baseband_leakage(200e3), 0.95);
  // Far above the LP corner: smoothed away.
  EXPECT_LT(model.baseband_leakage(40e6), 0.011);
  EXPECT_THROW(model.baseband_leakage(-1.0), std::domain_error);
}

TEST(Interference, SlowInterferersActLikeSelfInterference) {
  // A CW interferer at near-zero offset is indistinguishable from the
  // carrier: the HP filter strips its beat even when it is 30 dB above
  // the noise floor.
  EnvelopeInterferenceModel model;
  InterfererSpec slow{-30.0, 10.0};
  EXPECT_LT(model.snr_penalty_db(-60.0, slow), 0.15);
  // The same interferer parked mid-band would be catastrophic.
  InterfererSpec parked{-30.0, 200e3};
  EXPECT_GT(model.snr_penalty_db(-60.0, parked), 25.0);
}

TEST(Interference, InBandInterferenceEatsSnrOneForOne) {
  // Table 3's caveat quantified: an in-data-band interferer 10 dB above
  // the noise floor costs ~10.4 dB of SNR.
  EnvelopeInterferenceModel model;
  InterfererSpec in_band{-50.0, 200e3};
  EXPECT_NEAR(model.snr_penalty_db(-60.0, in_band), 10.4, 0.3);
  // Weak interferer at the floor: ~3 dB.
  InterfererSpec weak{-60.0, 200e3};
  EXPECT_NEAR(model.snr_penalty_db(-60.0, weak), 3.0, 0.2);
}

TEST(Interference, PenaltyNeverNegative) {
  EnvelopeInterferenceModel model;
  InterfererSpec negligible{-120.0, 200e3};
  EXPECT_GE(model.snr_penalty_db(-60.0, negligible), 0.0);
  EXPECT_LT(model.snr_penalty_db(-60.0, negligible), 0.01);
}

TEST(Interference, RangeImpactOnThePassiveLink) {
  // End-to-end: an in-band interferer at the passive link's floor level
  // costs ~3 dB -> one-way d^-2 propagation turns that into ~30% less
  // range.
  phy::LinkBudget budget;
  EnvelopeInterferenceModel model;
  const double floor_dbm =
      budget.noise_floor_dbm(phy::LinkMode::PassiveRx, phy::Bitrate::k100);
  InterfererSpec interferer{floor_dbm, 150e3};
  const double penalty =
      model.snr_penalty_db(floor_dbm, interferer);
  EXPECT_NEAR(penalty, 3.0, 0.3);
  // Degraded budget: shift the anchor by the penalty and compare ranges.
  phy::LinkBudgetConfig degraded;
  degraded.passive_range_100k =
      budget.config().passive_range_100k *
      std::pow(10.0, -penalty / 20.0);  // d^-2: 2 dB per distance decade*10
  phy::LinkBudget with_interference(degraded);
  const double clean_range =
      budget.range_m(phy::LinkMode::PassiveRx, phy::Bitrate::k100);
  const double dirty_range = with_interference.range_m(
      phy::LinkMode::PassiveRx, phy::Bitrate::k100);
  EXPECT_NEAR(dirty_range / clean_range, 0.71, 0.03);
}

TEST(Interference, FarOffsetsAndOverflowedPowersStayFinite) {
  // Past ~1e154 corners the high-pass term's rh^2 overflows; the band-pass
  // has long since reached its limit, 0, and must report it rather than
  // inf / inf = NaN.
  EnvelopeInterferenceModel model;
  EXPECT_EQ(model.baseband_leakage(1e300), 0.0);
  EXPECT_EQ(model.baseband_leakage(std::numeric_limits<double>::max()),
            0.0);
  EXPECT_EQ(model.snr_penalty_db(-90.0, {-20.0, 1e300}), 0.0);
  // An overflowed interferer power the band-pass removes entirely adds
  // nothing; one it passes saturates the penalty at +inf, never NaN.
  EXPECT_EQ(model.snr_penalty_db(-90.0, {4000.0, 0.0}), 0.0);
  EXPECT_EQ(model.snr_penalty_db(-90.0, {4000.0, 1e300}), 0.0);
  EXPECT_EQ(model.snr_penalty_db(-90.0, {4000.0, 200e3}),
            std::numeric_limits<double>::infinity());
  // Just below the overflow the closed form still answers, and smoothly.
  EXPECT_GT(model.baseband_leakage(1e150), 0.0);
  EXPECT_LT(model.baseband_leakage(1e150), 1e-280);
}

TEST(Interference, Validation) {
  EnvelopeInterferenceModel bad;
  bad.highpass_corner_hz = 5e6;  // above the lowpass
  EXPECT_THROW(bad.baseband_leakage(1e3), std::domain_error);
  EnvelopeInterferenceModel model;
  EXPECT_THROW(model.effective_noise_watts(-1.0, {}), std::domain_error);
}

}  // namespace
}  // namespace braidio::rf
