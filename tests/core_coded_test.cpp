#include "core/coded_candidates.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "baseline/reader.hpp"
#include "hal/backend.hpp"

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

TEST_F(CodedTest, CodedBackscatterAppearsInTheGap) {
  // Between the uncoded (2.4 m) and coded (~2.7 m) backscatter limits,
  // uncoded backscatter is dead and coded backscatter still works.
  EXPECT_FALSE(map_.best_rate(phy::LinkMode::Backscatter, 2.55).has_value());
  EXPECT_TRUE(coded_available(budget_, phy::LinkMode::Backscatter,
                              phy::Bitrate::k10, 2.55));
}

TEST(CodedBackends, HelpersStayInsideTheDeclaredLattice) {
  // Coding stretches the reader's backscatter horizon; an active-only
  // radio has no Regime A, coded or not.
  backends::register_all();
  const auto& registry = hal::BackendRegistry::instance();
  const baseline::CommercialReaderModel reader;
  const RegimeMap reader_map(registry.get(backends::kReaderPassive));
  EXPECT_GT(coded_regime_a_limit_m(reader_map, reader.link_budget()),
            reader_map.regime_a_limit_m());
  const RegimeMap ble_map(registry.get(backends::kBleActive));
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
