#include "core/coded_candidates.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "baseline/reader.hpp"
#include "plan/offload.hpp"

namespace braidio::core {
namespace {

class CodedTest : public ::testing::Test {
 protected:
  phy::LinkBudget budget_;
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(CodedTest, CodedRangeExceedsUncoded) {
  for (phy::LinkMode mode :
       {phy::LinkMode::Backscatter, phy::LinkMode::PassiveRx}) {
    for (phy::Bitrate rate : phy::kAllBitrates) {
      EXPECT_GT(coded_range_m(budget_, mode, rate),
                budget_.range_m(mode, rate))
          << phy::to_string(mode) << "@" << phy::to_string(rate);
    }
  }
}

TEST_F(CodedTest, RegimeAExtension) {
  // Headline of the extension: coding pushes the carrier-offload horizon
  // past the uncoded 2.4 m backscatter limit.
  const double uncoded = map_.regime_a_limit_m();
  const double coded = coded_regime_a_limit_m(map_, budget_);
  EXPECT_NEAR(uncoded, 2.4, 0.01);
  // Bit-exact: the horizon is a function of the calibrated table and
  // budget alone, whatever object carries them to the helper.
  EXPECT_DOUBLE_EQ(coded, 2.7224188604525219);
}

TEST_F(CodedTest, NoCodedVariantsWhereUncodedLives) {
  // At 0.5 m everything runs uncoded; the candidate set has no coded
  // entries.
  for (const auto& c : candidates_with_coding(map_, budget_, 0.5)) {
    EXPECT_FALSE(c.coded);
  }
}

TEST_F(CodedTest, CodedBackscatterAppearsInTheGap) {
  // Between the uncoded (2.4 m) and coded (~2.7 m) backscatter limits, a
  // coded backscatter candidate must appear.
  const auto candidates = candidates_with_coding(map_, budget_, 2.55);
  bool saw_coded_backscatter = false;
  for (const auto& c : candidates) {
    if (c.coded && c.candidate.mode == phy::LinkMode::Backscatter) {
      saw_coded_backscatter = true;
      // Per-bit cost inflated by 7/4 over the uncoded table entry.
      const auto& raw = map_.candidate(c.candidate.mode, c.candidate.rate);
      EXPECT_NEAR(c.candidate.tx_joules_per_bit() /
                      raw.tx_joules_per_bit(),
                  7.0 / 4.0, 1e-9);
    }
  }
  EXPECT_TRUE(saw_coded_backscatter);
}

TEST_F(CodedTest, CodedCandidatesExtendOffloadInTheGap) {
  // At 2.55 m, an energy-poor transmitter can still shed its carrier via
  // coded backscatter; without coding the planner would clamp.
  const auto coded = candidates_with_coding(map_, budget_, 2.55);
  std::vector<ModeCandidate> pool;
  for (const auto& c : coded) pool.push_back(c.candidate);
  const auto plan = plan::OffloadPlanner::plan(pool, 1.0, 500.0);
  EXPECT_TRUE(plan.proportional);

  const auto uncoded_plan =
      plan::OffloadPlanner::plan(map_.available_best_rate(2.55), 1.0, 500.0);
  EXPECT_FALSE(uncoded_plan.proportional);
  // And the poor device comes out ~3x cheaper per bit (coded backscatter
  // at 10 kbps is expensive airtime, so the braid still leans on active
  // for 30% of the bits).
  EXPECT_LT(plan.tx_joules_per_bit, 0.5 * uncoded_plan.tx_joules_per_bit);
}

TEST(CodedBackends, HelpersStayInsideTheDeclaredLattice) {
  // The reader drives backscatter tags only: coding may stretch its
  // backscatter horizon but never invents an active or passive point.
  const baseline::CommercialReaderModel reader;
  const RegimeMap reader_map(backends::reader_passive_backend());
  for (double d = 0.1; d < 40.0; d *= 1.1) {
    for (const auto& c :
         candidates_with_coding(reader_map, reader.link_budget(), d)) {
      EXPECT_EQ(c.candidate.mode, phy::LinkMode::Backscatter) << d;
    }
  }
  EXPECT_GT(coded_regime_a_limit_m(reader_map, reader.link_budget()),
            reader_map.regime_a_limit_m());
  // An active-only radio has no Regime A, coded or not.
  const RegimeMap ble_map(backends::ble_active_backend());
  EXPECT_EQ(coded_regime_a_limit_m(ble_map, phy::LinkBudget()), 0.0);
}

TEST_F(CodedTest, AvailabilityMatchesRangeBisect) {
  const double r =
      coded_range_m(budget_, phy::LinkMode::Backscatter, phy::Bitrate::k10);
  EXPECT_TRUE(coded_available(budget_, phy::LinkMode::Backscatter,
                              phy::Bitrate::k10, r * 0.98));
  EXPECT_FALSE(coded_available(budget_, phy::LinkMode::Backscatter,
                               phy::Bitrate::k10, r * 1.02));
}

}  // namespace
}  // namespace braidio::core
