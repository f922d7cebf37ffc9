#include "core/efficiency.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "backends/backends.hpp"

namespace braidio::core {
namespace {

class EfficiencyTest : public ::testing::Test {
 protected:
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(EfficiencyTest, Figure9HeadlineDynamicRange) {
  // At close range Braidio spans 1:2546 ... 3546:1 over the full-rate
  // corners and (with the lower bitrates) seven orders of magnitude total.
  const auto region = efficiency_region(map_, 0.3);
  EXPECT_EQ(region.regime, Regime::A);
  // Full-rate corners: 1:2546 (passive@1M) and 3546:1 (backscatter@1M);
  // including the lower bitrates the extremes reach 1:5600 and 7800:1.
  EXPECT_NEAR(region.min_ratio(), 1.0 / 5600.0, 1e-7);
  EXPECT_NEAR(region.max_ratio(), 7800.0, 0.5);
  EXPECT_GT(region.span_orders_of_magnitude(), 7.0);
  EXPECT_LT(region.span_orders_of_magnitude(), 8.0);
}

TEST_F(EfficiencyTest, RatioLabelsMatchPaperAnnotations) {
  const auto region = efficiency_region(map_, 0.3);
  bool saw_2546 = false, saw_3546 = false, saw_7800 = false;
  for (const auto& p : region.points) {
    const auto label = p.ratio_label();
    saw_2546 |= label == "1:2546";
    saw_3546 |= label == "3546:1";
    saw_7800 |= label == "7800:1";
  }
  EXPECT_TRUE(saw_2546);
  EXPECT_TRUE(saw_3546);
  EXPECT_TRUE(saw_7800);
}

TEST_F(EfficiencyTest, EfficiencyPointsAreReciprocalPowers) {
  const auto region = efficiency_region(map_, 0.3);
  for (const auto& p : region.points) {
    EXPECT_NEAR(p.tx_bits_per_joule,
                p.candidate.bits_per_second() / p.candidate.tx_power_w,
                1e-3);
    EXPECT_NEAR(p.rx_bits_per_joule,
                p.candidate.bits_per_second() / p.candidate.rx_power_w,
                1e-3);
  }
}

TEST_F(EfficiencyTest, Figure14RegionDegradesWithDistance) {
  // As separation grows the achievable ratio span shrinks: the triangle
  // "becomes increasingly obtuse", then collapses to a line, then a point.
  const double span_03 = efficiency_region(map_, 0.3)
                             .span_orders_of_magnitude();
  const double span_20 = efficiency_region(map_, 2.0)
                             .span_orders_of_magnitude();
  const double span_30 = efficiency_region(map_, 3.0)
                             .span_orders_of_magnitude();
  EXPECT_GE(span_03, span_20);
  EXPECT_GT(span_20, span_30);
  // Beyond 5.1 m only the (nearly symmetric) active points remain.
  const auto far = efficiency_region(map_, 5.6);
  EXPECT_LT(far.span_orders_of_magnitude(), 0.1);
}

TEST_F(EfficiencyTest, AsymmetryFavorsReceiverInRegimeB) {
  // Sec. 6.2: past the backscatter limit the supported asymmetry favors
  // the receiver (only passive mode offloads, and it offloads RX).
  const auto region = efficiency_region(map_, 3.0);
  EXPECT_LT(region.min_ratio(), 1.0 / 1000.0);
  EXPECT_LT(region.max_ratio(), 1.1);
}

TEST_F(EfficiencyTest, ProportionalPointPOnBestEdge) {
  // Fig. 9's point P for a 100:1 energy ratio: between backscatter (C) and
  // passive (B), i.e. a braid of the two carrier placements.
  const auto p = proportional_point(map_, 0.3, 100.0);
  EXPECT_GT(p.tx_bits_per_joule, 0.0);
  EXPECT_GT(p.rx_bits_per_joule, 0.0);
  // TX:RX efficiency ratio equals the energy ratio... inverted per Eq. 1:
  // d1/d2 = E1/E2 -> (bits/J at TX)/(bits/J at RX) = E2/E1 = 1/100.
  EXPECT_NEAR((p.tx_bits_per_joule / p.rx_bits_per_joule) * 100.0, 1.0,
              1e-6);
  EXPECT_NE(p.plan_summary.find("passive"), std::string::npos);
  EXPECT_NE(p.plan_summary.find("backscatter"), std::string::npos);
  EXPECT_THROW(proportional_point(map_, 0.3, 0.0), std::invalid_argument);
}

TEST_F(EfficiencyTest, EmptyRegionThrows) {
  EfficiencyRegion empty;
  EXPECT_THROW(empty.min_ratio(), std::logic_error);
  EXPECT_THROW(empty.max_ratio(), std::logic_error);
}

TEST(EfficiencyPoint, LabelRendering) {
  EfficiencyPoint p;
  p.ratio = 2546.0;
  EXPECT_EQ(p.ratio_label(), "2546:1");
  p.ratio = 1.0 / 4000.0;
  EXPECT_EQ(p.ratio_label(), "1:4000");
  p.ratio = 1.0;
  EXPECT_EQ(p.ratio_label(), "1:1");
}

}  // namespace
}  // namespace braidio::core
