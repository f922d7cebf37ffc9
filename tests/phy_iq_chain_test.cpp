#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "phy/modulation.hpp"
#include "support/iq_chain.hpp"

namespace braidio::phy {
namespace {

// modulate() and demodulate() are a pair: whatever the bits, a noiseless
// frame comes back intact. BPSK needs the pilot modulate() emits; phase
// estimated from the payload itself inverts every bit of a frame whose
// first symbols hold more zeros than ones.
TEST(IqChain, NoiselessBpskRoundTrip) {
  IqChain chain;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto bits = random_bits(500, seed);
    EXPECT_EQ(chain.demodulate(chain.modulate(bits)), bits) << seed;
  }
  const unsigned n = chain.config().samples_per_symbol;
  EXPECT_EQ(chain.modulate({}).size(), 32u * n);  // the pilot alone
  EXPECT_TRUE(chain.demodulate(chain.modulate({})).empty());
  EXPECT_THROW(chain.demodulate(std::vector<std::complex<double>>(8)),
               std::invalid_argument);
}

TEST(IqChain, NoiselessBfskRoundTrip) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  IqChain chain(cfg);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const auto bits = random_bits(500, seed);
    EXPECT_EQ(chain.demodulate(chain.modulate(bits)), bits) << seed;
  }
}

TEST(IqChain, BpskMatchesAnalyticQ) {
  IqChain chain;
  for (double db : {4.0, 6.0, 8.0}) {
    const double snr = std::pow(10.0, db / 10.0);
    const auto r = chain.simulate(snr, 200'000, 3);
    ASSERT_GT(r.analytic_ber, 1e-4) << db;
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << db;
  }
}

TEST(IqChain, BfskMatchesNoncoherentExponential) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  IqChain chain(cfg);
  for (double db : {6.0, 8.0, 10.0}) {
    const double snr = std::pow(10.0, db / 10.0);
    const auto r = chain.simulate(snr, 200'000, 5);
    ASSERT_GT(r.analytic_ber, 1e-4) << db;
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << db;
  }
}

TEST(IqChain, PhaseOffsetIsEstimatedAndRemoved) {
  // The whole point of a coherent receiver: an arbitrary channel phase
  // must not cost BER once the pilot estimator locks.
  const double snr = std::pow(10.0, 0.6);  // ~6 dB
  // The 32-symbol pilot sums to 32 N A against noise of variance 32 N
  // per dimension, so the estimate's error has sigma 1/sqrt(64 gamma)
  // (0.063 rad here). Check its RMS and bias over 64 noise draws per
  // phase: a single draw exceeds 0.1 rad one time in nine.
  const double sigma = 1.0 / std::sqrt(64.0 * snr);
  for (double phase : {0.4, 1.2, 2.5, -1.8}) {
    IqChainConfig cfg;
    cfg.channel_phase_rad = phase;
    IqChain chain(cfg);
    double sum = 0.0, sum_sq = 0.0;
    constexpr int kSeeds = 64;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      // The estimate reads only the pilot, so a short frame will do.
      const auto r = chain.simulate(snr, 256, seed);
      // Estimated phase matches the channel (mod 2 pi).
      const double diff = std::remainder(r.estimated_phase_rad - phase,
                                         2.0 * std::numbers::pi);
      sum += diff;
      sum_sq += diff * diff;
    }
    const double rms = std::sqrt(sum_sq / kSeeds);
    EXPECT_GT(rms, 0.75 * sigma) << phase;
    EXPECT_LT(rms, 1.3 * sigma) << phase;
    EXPECT_LT(std::fabs(sum / kSeeds), 3.0 * sigma / 8.0) << phase;

    // ~6 dB: analytic BER ~2.3e-3, so 100k bits give ~230 errors —
    // enough statistics for a tight ratio check.
    const auto r = chain.simulate(snr, 100'000, 7);
    EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.3) << phase;
  }
}

TEST(IqChain, BfskIgnoresPhaseEntirely) {
  IqChainConfig cfg;
  cfg.modulation = IqChainConfig::Modulation::Bfsk;
  cfg.channel_phase_rad = 2.0;
  IqChain chain(cfg);
  const auto r = chain.simulate(std::pow(10.0, 1.0), 50'000, 9);
  EXPECT_NEAR(r.measured_ber / r.analytic_ber, 1.0, 0.35);
}

TEST(IqChain, ResidualCfoDegradesBpsk) {
  IqChainConfig clean;
  IqChainConfig drifting;
  drifting.cfo_cycles_per_symbol = 2e-3;  // phase drifts ~2.3 rad over run
  const auto r_clean = IqChain(clean).simulate(std::pow(10.0, 0.8),
                                               30'000, 11);
  const auto r_cfo = IqChain(drifting).simulate(std::pow(10.0, 0.8),
                                                30'000, 11);
  EXPECT_GT(r_cfo.measured_ber, 3.0 * std::max(r_clean.measured_ber, 1e-4));
}

TEST(IqChain, CoherentBeatsEnvelopeAtEqualSnr) {
  // Table 3's sensitivity tradeoff, quantified: at the same per-bit SNR
  // the coherent BPSK chain outperforms the non-coherent chain by orders
  // of magnitude in BER.
  IqChainConfig fsk_cfg;
  fsk_cfg.modulation = IqChainConfig::Modulation::Bfsk;
  const double snr = std::pow(10.0, 1.0);  // 10 dB
  const auto coherent = IqChain().simulate(snr, 200'000, 13);
  const auto noncoherent = IqChain(fsk_cfg).simulate(snr, 200'000, 13);
  EXPECT_LT(coherent.measured_ber * 10.0, noncoherent.measured_ber + 1e-5);
}

TEST(IqChain, Validation) {
  IqChainConfig bad;
  bad.samples_per_symbol = 1;
  EXPECT_THROW(IqChain{bad}, std::invalid_argument);
  IqChainConfig same_tones;
  same_tones.modulation = IqChainConfig::Modulation::Bfsk;
  same_tones.fsk_cycles_low = same_tones.fsk_cycles_high = 1;
  EXPECT_THROW(IqChain{same_tones}, std::invalid_argument);
  IqChain chain;
  EXPECT_THROW(chain.simulate(1.0, 0, 1), std::invalid_argument);
  EXPECT_THROW(chain.simulate(-1.0, 10, 1), std::invalid_argument);
}

class IqSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(IqSnrSweep, BerMonotone) {
  IqChain chain;
  const double snr = GetParam();
  const auto low = chain.simulate(snr, 50'000, 17);
  const auto high = chain.simulate(snr * 2.0, 50'000, 17);
  EXPECT_LE(high.measured_ber, low.measured_ber + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IqSnrSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace braidio::phy
