#include "phy/link_budget.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "backends/backends.hpp"
#include "hal/backend.hpp"
#include "util/units.hpp"

namespace braidio::phy {
namespace {

class LinkBudgetTest : public ::testing::Test {
 protected:
  LinkBudget budget_;
};

TEST_F(LinkBudgetTest, CalibrationAnchorsAreExact) {
  // Fig. 13's operating ranges must come back exactly from the calibrated
  // model (BER threshold crossing = anchor distance).
  EXPECT_NEAR(budget_.range_m(LinkMode::Backscatter, Bitrate::M1), 0.9, 1e-3);
  EXPECT_NEAR(budget_.range_m(LinkMode::Backscatter, Bitrate::k100), 1.8,
              1e-3);
  EXPECT_NEAR(budget_.range_m(LinkMode::Backscatter, Bitrate::k10), 2.4,
              1e-3);
  EXPECT_NEAR(budget_.range_m(LinkMode::PassiveRx, Bitrate::M1), 3.9, 1e-3);
  EXPECT_NEAR(budget_.range_m(LinkMode::PassiveRx, Bitrate::k100), 4.2, 1e-3);
  EXPECT_NEAR(budget_.range_m(LinkMode::PassiveRx, Bitrate::k10), 5.1, 1e-3);
}

TEST_F(LinkBudgetTest, ActiveModeCoversTheTestRoom) {
  // "The active mode operates well beyond 6 meters."
  for (Bitrate rate : kAllBitrates) {
    EXPECT_GT(budget_.range_m(LinkMode::Active, rate), 6.0);
    EXPECT_TRUE(budget_.available(LinkMode::Active, rate, 6.0));
  }
}

TEST_F(LinkBudgetTest, BerIsMonotoneInDistance) {
  for (LinkMode mode : kAllLinkModes) {
    for (Bitrate rate : kAllBitrates) {
      double prev = 0.0;
      for (double d = 0.1; d <= 8.0; d += 0.1) {
        const double b = budget_.ber(mode, rate, d);
        // Allow for double rounding in the deep-BER (<1e-12) regime.
        EXPECT_GE(b * (1.0 + 1e-6) + 1e-13, prev)
            << to_string(mode) << "@" << to_string(rate) << " d=" << d;
        prev = b;
      }
    }
  }
}

TEST_F(LinkBudgetTest, LowerBitratesReachFarther) {
  for (LinkMode mode : {LinkMode::PassiveRx, LinkMode::Backscatter}) {
    EXPECT_LT(budget_.range_m(mode, Bitrate::M1),
              budget_.range_m(mode, Bitrate::k100));
    EXPECT_LT(budget_.range_m(mode, Bitrate::k100),
              budget_.range_m(mode, Bitrate::k10));
  }
}

TEST_F(LinkBudgetTest, BackscatterRollsOffFasterThanPassive) {
  // Radar d^-4 vs one-way d^-2: doubling distance costs backscatter 12 dB
  // but passive only 6 dB.
  const double drop_bs = budget_.snr_db(LinkMode::Backscatter, Bitrate::M1,
                                        0.4) -
                         budget_.snr_db(LinkMode::Backscatter, Bitrate::M1,
                                        0.8);
  const double drop_pa =
      budget_.snr_db(LinkMode::PassiveRx, Bitrate::M1, 0.4) -
      budget_.snr_db(LinkMode::PassiveRx, Bitrate::M1, 0.8);
  EXPECT_NEAR(drop_bs, 12.0, 0.1);
  EXPECT_NEAR(drop_pa, 6.0, 0.1);
}

TEST_F(LinkBudgetTest, BestBitrateStepsDownWithDistance) {
  // Sec. 6.2: backscatter switches 1M -> 100k at 0.9 m -> 10k at 1.8 m and
  // dies past 2.4 m.
  EXPECT_EQ(budget_.best_bitrate(LinkMode::Backscatter, 0.5), Bitrate::M1);
  EXPECT_EQ(budget_.best_bitrate(LinkMode::Backscatter, 1.2), Bitrate::k100);
  EXPECT_EQ(budget_.best_bitrate(LinkMode::Backscatter, 2.0), Bitrate::k10);
  EXPECT_FALSE(budget_.best_bitrate(LinkMode::Backscatter, 2.6).has_value());
  EXPECT_EQ(budget_.best_bitrate(LinkMode::PassiveRx, 3.0), Bitrate::M1);
  EXPECT_EQ(budget_.best_bitrate(LinkMode::PassiveRx, 4.0), Bitrate::k100);
  EXPECT_EQ(budget_.best_bitrate(LinkMode::PassiveRx, 4.8), Bitrate::k10);
  EXPECT_FALSE(budget_.best_bitrate(LinkMode::PassiveRx, 5.5).has_value());
}

TEST_F(LinkBudgetTest, DemodulatorAssignment) {
  EXPECT_EQ(LinkBudget::ber_model(LinkMode::Active), BerModel::CoherentFsk);
  EXPECT_EQ(LinkBudget::ber_model(LinkMode::PassiveRx),
            BerModel::NoncoherentOok);
  EXPECT_EQ(LinkBudget::ber_model(LinkMode::Backscatter),
            BerModel::CoherentBpsk);
}

TEST_F(LinkBudgetTest, ReceivedPowerSanity) {
  // Passive-RX mode receives the full carrier one-way; backscatter only a
  // reflection — at equal distance the reflection is far weaker.
  const double pa = budget_.received_power_dbm(LinkMode::PassiveRx, 1.0);
  const double bs = budget_.received_power_dbm(LinkMode::Backscatter, 1.0);
  EXPECT_GT(pa, bs + 20.0);
  EXPECT_THROW(budget_.received_power_dbm(LinkMode::Active, -1.0),
               std::domain_error);
}

TEST_F(LinkBudgetTest, NoiseFloorsReflectBitrateSensitivity) {
  // Narrower bandwidth -> the calibrated effective floor drops (better
  // sensitivity at lower bitrates, as the Fig. 13 ranges imply).
  for (LinkMode mode : {LinkMode::PassiveRx, LinkMode::Backscatter}) {
    EXPECT_LT(budget_.noise_floor_dbm(mode, Bitrate::k10),
              budget_.noise_floor_dbm(mode, Bitrate::k100));
    EXPECT_LT(budget_.noise_floor_dbm(mode, Bitrate::k100),
              budget_.noise_floor_dbm(mode, Bitrate::M1));
  }
}

TEST_F(LinkBudgetTest, SnrDbAndLinearAgree) {
  const double db = budget_.snr_db(LinkMode::PassiveRx, Bitrate::M1, 2.0);
  const double lin = budget_.snr(LinkMode::PassiveRx, Bitrate::M1, 2.0);
  EXPECT_NEAR(util::linear_to_db(lin), db, 1e-9);
}

TEST(LinkBudgetConfig, CustomAnchorsShiftRanges) {
  LinkBudgetConfig cfg;
  cfg.backscatter_range_1m_bps = 1.5;
  LinkBudget budget(cfg);
  EXPECT_NEAR(budget.range_m(LinkMode::Backscatter, Bitrate::M1), 1.5, 1e-3);
}

TEST(LinkBudgetConfig, RejectsBadThreshold) {
  LinkBudgetConfig cfg;
  cfg.ber_threshold = 0.0;
  EXPECT_THROW(LinkBudget{cfg}, std::invalid_argument);
  cfg.ber_threshold = 0.6;
  EXPECT_THROW(LinkBudget{cfg}, std::invalid_argument);
}

class AvailabilitySweep
    : public ::testing::TestWithParam<std::tuple<LinkMode, Bitrate>> {};

TEST_P(AvailabilitySweep, AvailabilityMatchesRange) {
  LinkBudget budget;
  const auto [mode, rate] = GetParam();
  const double range = budget.range_m(mode, rate);
  EXPECT_TRUE(budget.available(mode, rate, range * 0.95));
  EXPECT_FALSE(budget.available(mode, rate, range * 1.05));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, AvailabilitySweep,
    ::testing::Combine(::testing::ValuesIn(kAllLinkModes),
                       ::testing::ValuesIn(kAllBitrates)));

/// The calibration anchor [m] of (mode, rate) in a config.
double anchor_of(const LinkBudgetConfig& c, LinkMode mode, Bitrate rate) {
  if (mode == LinkMode::Active) return c.active_range;
  const bool bs = mode == LinkMode::Backscatter;
  switch (rate) {
    case Bitrate::M1:
      return bs ? c.backscatter_range_1m_bps : c.passive_range_1m_bps;
    case Bitrate::k100:
      return bs ? c.backscatter_range_100k : c.passive_range_100k;
    case Bitrate::k10:
      return bs ? c.backscatter_range_10k : c.passive_range_10k;
  }
  return 0.0;
}

/// `center` and its 64 ULP neighbours on each side.
void push_ulp_neighbourhood(std::vector<double>& d, double center) {
  double up = center;
  double down = center;
  d.push_back(center);
  for (int ulp = 1; ulp <= 64; ++ulp) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, 0.0);
    d.push_back(up);
    d.push_back(down);
  }
}

/// 1e5 log-spaced distances over 0.01-30 m, the 0.1 m figure grid out to
/// 30 m (built as i / 10 and as i * 0.1), and every anchor and both edges
/// of its distance bracket +/- 1..64 ULPs.
std::vector<double> availability_probe_distances(const LinkBudgetConfig& c) {
  constexpr int kGrid = 100'000;
  std::vector<double> d;
  for (int i = 0; i < kGrid; ++i) {
    d.push_back(0.01 * std::pow(3000.0, static_cast<double>(i) / (kGrid - 1)));
  }
  for (int i = 1; i <= 300; ++i) {
    d.push_back(static_cast<double>(i) / 10.0);
    d.push_back(i * 0.1);
  }
  for (LinkMode mode : kAllLinkModes) {
    for (Bitrate rate : kAllBitrates) {
      const double anchor = anchor_of(c, mode, rate);
      push_ulp_neighbourhood(d, anchor);
      push_ulp_neighbourhood(d, anchor * (1.0 - LinkBudget::kAnchorBracket));
      push_ulp_neighbourhood(d, anchor * (1.0 + LinkBudget::kAnchorBracket));
    }
  }
  return d;
}

TEST(LinkBudgetAvailability, AgreesWithTheBerComparisonOnEveryBackend) {
  // available() answers from a distance bracket around each anchor, then
  // from the SNR outside a 1e-6 dB guard band around the threshold SNR. It
  // must never disagree with the BER comparison it stands for, on the
  // channel of any backend.
  backends::register_all();
  for (const char* name : {backends::kBraidio, backends::kBleActive,
                           backends::kReaderPassive, backends::kBlispHybrid}) {
    const auto* budget = dynamic_cast<const LinkBudget*>(
        &hal::BackendRegistry::instance().get(name).channel());
    ASSERT_NE(budget, nullptr) << name;
    const LinkBudgetConfig& c = budget->config();
    const std::vector<double> distances = availability_probe_distances(c);
    for (LinkMode mode : kAllLinkModes) {
      // Just outside the guard band the BER comparison already agrees with
      // the sign of the SNR margin, at every scale out to 100 dB.
      const double need_db =
          required_snr_db(LinkBudget::ber_model(mode), c.ber_threshold);
      std::size_t wrong_side = 0;
      for (double off = 1.000001e-6; off < 100.0; off *= 1.01) {
        if (budget->ber_from_snr_db(mode, need_db + off) > c.ber_threshold) {
          ++wrong_side;
        }
        if (budget->ber_from_snr_db(mode, need_db - off) <= c.ber_threshold) {
          ++wrong_side;
        }
      }
      EXPECT_EQ(wrong_side, 0u) << name << " " << to_string(mode);
      // The anchors sit on the threshold SNR, well inside the guard band,
      // so their ULP neighbourhoods exercise the BER-evaluating branch.
      for (Bitrate rate : kAllBitrates) {
        EXPECT_NEAR(budget->snr_db(mode, rate, anchor_of(c, mode, rate)),
                    need_db, 1e-9)
            << name << " " << to_string(mode) << "@" << to_string(rate);
        std::size_t mismatches = 0;
        double first = 0.0;
        for (const double d : distances) {
          const bool want = budget->ber(mode, rate, d) <= c.ber_threshold;
          if (budget->available(mode, rate, d) != want && mismatches++ == 0) {
            first = d;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << name << " " << to_string(mode) << "@" << to_string(rate)
            << " first at d=" << first;
      }
    }
  }
}

TEST(LinkBudgetAvailability, AnchorInsideTheDistanceClampKeepsNoBracket) {
  // A backscatter 1M anchor at 0.04 m sits inside friis_gain's 0.05 m
  // clamp: both bracket edges see the clamped power, so their SNR margins
  // are equal and cannot straddle the guard band. available() must answer
  // through the SNR and BER tests alone and still agree with the BER
  // comparison at every probe distance, for every (mode, rate).
  LinkBudgetConfig c;
  c.backscatter_range_1m_bps = 0.04;
  const LinkBudget budget(c);
  const double inner = 0.04 * (1.0 - LinkBudget::kAnchorBracket);
  const double outer = 0.04 * (1.0 + LinkBudget::kAnchorBracket);
  EXPECT_EQ(budget.snr_db(LinkMode::Backscatter, Bitrate::M1, inner),
            budget.snr_db(LinkMode::Backscatter, Bitrate::M1, outer));
  const std::vector<double> distances = availability_probe_distances(c);
  for (LinkMode mode : kAllLinkModes) {
    for (Bitrate rate : kAllBitrates) {
      std::size_t mismatches = 0;
      double first = 0.0;
      for (const double d : distances) {
        const bool want = budget.ber(mode, rate, d) <= c.ber_threshold;
        if (budget.available(mode, rate, d) != want && mismatches++ == 0) {
          first = d;
        }
      }
      EXPECT_EQ(mismatches, 0u) << to_string(mode) << "@" << to_string(rate)
          << " first at d=" << first;
    }
  }
}

}  // namespace
}  // namespace braidio::phy
