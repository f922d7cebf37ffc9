#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "rf/antenna.hpp"
#include "rf/constants.hpp"
#include "rf/fading.hpp"
#include "rf/geometry.hpp"
#include "rf/saw_filter.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio::rf {
namespace {

TEST(Geometry, VectorAlgebra) {
  const Vec2 a{1.0, 2.0}, b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_EQ(a + b, (Vec2{5.0, 8.0}));
  EXPECT_EQ(b - a, (Vec2{3.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
}

TEST(Antenna, DiversityPairSpacing) {
  const double lambda = util::wavelength_m(kCarrierFrequencyHz);
  const auto pair = make_diversity_pair({1.0, 0.5}, lambda / 8.0);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_NEAR(distance(pair[0].position, pair[1].position), lambda / 8.0,
              1e-12);
  // Centered on the requested point.
  EXPECT_NEAR((pair[0].position.x + pair[1].position.x) / 2.0, 1.0, 1e-12);
  EXPECT_THROW(make_diversity_pair({0, 0}, 0.0), std::invalid_argument);
}

TEST(Fading, CoherentProcessCorrelationDecay) {
  // With sample interval equal to the coherence time, rho = e^-1.
  CoherentChannelProcess p(1e-3, 1e-3, {1.0, 0.0}, 0.1, util::Rng(11));
  EXPECT_NEAR(p.rho(), std::exp(-1.0), 1e-12);
  // Much faster sampling keeps the channel nearly static step to step.
  CoherentChannelProcess fast(1e-3, 1e-6, {1.0, 0.0}, 0.1, util::Rng(13));
  const auto before = fast.current();
  const auto after = fast.advance(1e-6);
  EXPECT_LT(std::abs(after - before), 0.05);
  EXPECT_THROW(
      CoherentChannelProcess(0.0, 1e-6, {0, 0}, 0.1, util::Rng(1)),
      std::domain_error);
}

TEST(Fading, CoherentProcessStationaryVariance) {
  CoherentChannelProcess p(1e-3, 1e-4, {0.0, 0.0}, 0.5, util::Rng(17));
  double sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sq += std::norm(p.advance(1e-4));
  // Stationary variance of the scatter component is stddev^2.
  EXPECT_NEAR(sq / n, 0.25, 0.03);
}

TEST(SawFilter, PassbandInsertionLossOnly) {
  SawFilter filter;
  EXPECT_TRUE(filter.in_band(915e6));
  EXPECT_NEAR(filter.attenuation_db(915e6), 1.5, 1e-9);
}

TEST(SawFilter, DatasheetSuppressionPoints) {
  SawFilter filter;
  // SF2049E: 50 dB at the 800 MHz band, >30 dB at 2.4 GHz (Table 4).
  EXPECT_NEAR(filter.attenuation_db(850e6), 50.0, 1e-9);
  EXPECT_NEAR(filter.attenuation_db(2.45e9), 30.0, 1e-9);
}

TEST(SawFilter, SkirtsInterpolate) {
  SawFilter filter;
  // 5 MHz beyond the upper band edge: halfway up the default skirt.
  const double att = filter.attenuation_db(933e6);
  EXPECT_GT(att, 1.5);
  EXPECT_LT(att, 35.0);
  // Monotone along the skirt.
  EXPECT_LT(filter.attenuation_db(930e6), filter.attenuation_db(936e6));
}

TEST(SawFilter, RejectsBadConfig) {
  SawFilterSpec bad;
  bad.passband_low_hz = 928e6;
  bad.passband_high_hz = 902e6;
  EXPECT_THROW(SawFilter{bad}, std::invalid_argument);
  SawFilter filter;
  EXPECT_THROW(filter.attenuation_db(0.0), std::domain_error);
}

TEST(SawFilter, WhyBraidioNeedsIt) {
  // Sec. 3.2: the envelope detector is not frequency selective; the SAW is
  // what knocks a 2.4 GHz WiFi interferer 30 dB down while costing only
  // 1.5 dB in band. Net selectivity benefit must exceed 25 dB.
  SawFilter filter;
  const double selectivity =
      filter.attenuation_db(2.45e9) - filter.attenuation_db(915e6);
  EXPECT_GT(selectivity, 25.0);
}

}  // namespace
}  // namespace braidio::rf
