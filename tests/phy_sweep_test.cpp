// Exhaustive parameterized sweeps over the PHY surface: every
// (mode, bitrate) pair through the Monte-Carlo chain and the link budget.
#include <gtest/gtest.h>

#include "phy/waveform.hpp"
#include "rf/saw_filter.hpp"

namespace braidio::phy {
namespace {

using ModeRate = std::tuple<LinkMode, Bitrate>;

class ModeRateSweep : public ::testing::TestWithParam<ModeRate> {
 protected:
  LinkBudget budget_;
};

TEST_P(ModeRateSweep, CleanWellInsideRange) {
  const auto [mode, rate] = GetParam();
  WaveformSimConfig cfg;
  cfg.mode = mode;
  cfg.rate = rate;
  cfg.distance_m = budget_.range_m(mode, rate) * 0.5;
  cfg.bits = 20'000;
  EXPECT_EQ(simulate_waveform(budget_, cfg).bit_errors, 0u);
}

TEST_P(ModeRateSweep, RoughlyOnePercentAtTheRangeEdge) {
  const auto [mode, rate] = GetParam();
  WaveformSimConfig cfg;
  cfg.mode = mode;
  cfg.rate = rate;
  cfg.distance_m = budget_.range_m(mode, rate);
  cfg.bits = 100'000;
  const auto r = simulate_waveform(budget_, cfg);
  // The range is defined as the BER=1e-2 crossing; the MC must land there.
  EXPECT_NEAR(r.measured_ber, 0.01, 0.004)
      << to_string(mode) << "@" << to_string(rate);
}

TEST_P(ModeRateSweep, HopelessFarOutsideRange) {
  const auto [mode, rate] = GetParam();
  WaveformSimConfig cfg;
  cfg.mode = mode;
  cfg.rate = rate;
  cfg.distance_m = budget_.range_m(mode, rate) * 3.0;
  cfg.bits = 20'000;
  // The one-way active link degrades gently (d^-2, coherent); the
  // envelope links collapse much faster.
  EXPECT_GT(simulate_waveform(budget_, cfg).measured_ber, 0.15);
}

TEST_P(ModeRateSweep, CircuitChainAgreesDirectionally) {
  const auto [mode, rate] = GetParam();
  if (mode == LinkMode::Active) GTEST_SKIP() << "coherent chain";
  WaveformSimConfig cfg;
  cfg.mode = mode;
  cfg.rate = rate;
  cfg.use_circuit_chain = true;
  cfg.bits = 10'000;
  cfg.distance_m = budget_.range_m(mode, rate) * 0.6;
  const auto good = simulate_waveform(budget_, cfg);
  cfg.distance_m = budget_.range_m(mode, rate) * 2.2;
  const auto bad = simulate_waveform(budget_, cfg);
  EXPECT_LT(good.measured_ber, 1e-3);
  // The low-pass noise averaging keeps the chain a few dB better than
  // the point model, so use a gentle failure threshold.
  EXPECT_GT(bad.measured_ber, 0.03);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModeRateSweep,
    ::testing::Combine(::testing::ValuesIn(kAllLinkModes),
                       ::testing::ValuesIn(kAllBitrates)),
    [](const ::testing::TestParamInfo<ModeRate>& point) {
      return std::string(to_string(std::get<0>(point.param))) + "_" +
             to_string(std::get<1>(point.param));
    });

class SawSweep : public ::testing::TestWithParam<double> {};

TEST_P(SawSweep, MonotoneSkirtsOutsideTheBand) {
  rf::SawFilter filter;
  const double f = GetParam();
  // Attenuation grows (weakly) moving away from the passband edge.
  const double towards_band =
      f < 915e6 ? f + 1e6 : f - 1e6;
  EXPECT_GE(filter.attenuation_db(f) + 1e-9,
            filter.attenuation_db(towards_band))
      << f;
}

INSTANTIATE_TEST_SUITE_P(Skirts, SawSweep,
                         ::testing::Values(880e6, 890e6, 896e6, 900e6,
                                           930e6, 934e6, 940e6, 960e6));

}  // namespace
}  // namespace braidio::phy
