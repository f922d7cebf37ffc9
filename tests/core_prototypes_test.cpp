#include "core/prototypes.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "plan/offload.hpp"

namespace braidio::core {
namespace {

class PrototypesTest : public ::testing::Test {
 protected:
  PowerTable v3_;
};

TEST_F(PrototypesTest, ThreeIterationsInOrder) {
  const auto& protos = prototype_table();
  ASSERT_EQ(protos.size(), 3u);
  // Each iteration cut the backscatter receive budget.
  EXPECT_DOUBLE_EQ(protos[0].backscatter_rx_power_w, 0.640);  // AS3993 COTS
  EXPECT_DOUBLE_EQ(protos[1].backscatter_rx_power_w, 0.240);  // Zero-IF
  EXPECT_DOUBLE_EQ(protos[2].backscatter_rx_power_w, 0.129);  // final
  EXPECT_GT(protos[0].backscatter_rx_power_w,
            protos[1].backscatter_rx_power_w);
  EXPECT_GT(protos[1].backscatter_rx_power_w,
            protos[2].backscatter_rx_power_w);
}

TEST_F(PrototypesTest, CandidatesOverrideOnlyTheReceiveChain) {
  const auto& v1 = prototype_table()[0];
  const auto candidates = prototype_candidates(v1, v3_);
  ASSERT_EQ(candidates.size(), v3_.candidates().size());
  for (const auto& c : candidates) {
    if (c.mode == phy::LinkMode::Backscatter) {
      EXPECT_DOUBLE_EQ(c.rx_power_w, 0.640);
      // Tag side untouched: the Moo tag is already micro-watt class.
      EXPECT_LT(c.tx_power_w, 40e-6);
    } else if (c.mode == phy::LinkMode::Active) {
      EXPECT_EQ(c, v3_.candidate(c.mode, c.rate));
    }
  }
}

TEST_F(PrototypesTest, FinalVersionEqualsCalibratedTable) {
  const auto& v3 = prototype_table()[2];
  const auto candidates = prototype_candidates(v3, v3_);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(candidates[i], v3_.candidates()[i]);
  }
}

TEST_F(PrototypesTest, DiagonalGainTracksReceiveChainPower) {
  // The decisive experiment: with equal batteries, a braid built on the
  // v1 COTS receive chain (640 mW) burns MORE than Bluetooth; v2 barely
  // breaks even; only v3's 129 mW delivers the paper's ~1.4x diagonal.
  const double bt_per_bit = 94.56e-9;  // Bluetooth TX side at 1 Mbps
  std::vector<double> gains;
  for (const auto& proto : prototype_table()) {
    auto candidates = prototype_candidates(proto, v3_);
    // Full-rate candidates only (the diagonal scenario of Fig. 15).
    std::vector<ModeCandidate> fast;
    for (const auto& c : candidates) {
      if (c.rate == phy::Bitrate::M1) fast.push_back(c);
    }
    const auto plan = plan::OffloadPlanner::plan(fast, 1.0, 1.0);
    gains.push_back(bt_per_bit / plan.tx_joules_per_bit);
  }
  // With an expensive reader end the planner routes around backscatter
  // almost entirely (99%+ active), so v1 degenerates to ~Bluetooth — no
  // benefit, a quarter-kilogram reader's power budget, and nothing gained.
  EXPECT_LT(gains[0], 1.05);  // v1: no better than Bluetooth
  EXPECT_LT(gains[1], 1.2);   // v2: marginal
  EXPECT_GT(gains[2], 1.4);   // v3: the paper's 1.4x+ diagonal win
  EXPECT_GT(gains[1], gains[0]);
  EXPECT_GT(gains[2], gains[1]);
}

TEST_F(PrototypesTest, RatioSpanAlwaysHuge) {
  // All three versions support extreme asymmetry; power, not dynamic
  // range, is what the iterations fixed.
  for (const auto& proto : prototype_table()) {
    double lo = 1e300, hi = -1e300;
    for (const auto& c : prototype_candidates(proto, v3_)) {
      if (c.rate != phy::Bitrate::M1) continue;  // full-rate triangle
      const double ratio = c.tx_joules_per_bit() / c.rx_joules_per_bit();
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
    }
    EXPECT_LT(lo, 1e-3);
    EXPECT_GT(hi, 1e3);
  }
}

}  // namespace
}  // namespace braidio::core
