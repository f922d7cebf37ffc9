#include "core/regimes.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"

namespace braidio::core {
namespace {

class RegimesTest : public ::testing::Test {
 protected:
  PowerTable table_;
  RegimeMap map_{backends::braidio_backend()};
};

TEST_F(RegimesTest, RegimeBoundariesMatchFig8Narrative) {
  // Regime A while backscatter works (<= 2.4 m), B until passive dies
  // (<= 5.1 m), C beyond.
  EXPECT_EQ(map_.regime(0.3), Regime::A);
  EXPECT_EQ(map_.regime(2.3), Regime::A);
  EXPECT_EQ(map_.regime(2.6), Regime::B);
  EXPECT_EQ(map_.regime(5.0), Regime::B);
  EXPECT_EQ(map_.regime(5.5), Regime::C);
  EXPECT_NEAR(map_.regime_a_limit_m(), 2.4, 0.01);
  EXPECT_NEAR(map_.regime_b_limit_m(), 5.1, 0.01);
}

TEST_F(RegimesTest, AvailableShrinksWithDistance) {
  std::size_t prev = 10;
  for (double d : {0.3, 1.0, 2.0, 3.0, 4.4, 5.5}) {
    const auto avail = map_.available(d);
    EXPECT_LE(avail.size(), prev) << "d=" << d;
    prev = avail.size();
  }
  // Close range: everything; far: only active.
  EXPECT_EQ(map_.available(0.3).size(), 9u);
  const auto far = map_.available(5.5);
  ASSERT_EQ(far.size(), 3u);
  for (const auto& c : far) {
    EXPECT_EQ(c.mode, phy::LinkMode::Active);
  }
}

TEST_F(RegimesTest, BestRateRespectsFig13Steps) {
  // At 0.3 m every mode runs 1 Mbps; at 1.2 m backscatter has dropped to
  // 100 kbps while passive still runs 1 Mbps.
  const auto close = map_.available_best_rate(0.3);
  ASSERT_EQ(close.size(), 3u);
  for (const auto& c : close) {
    EXPECT_EQ(c.rate, phy::Bitrate::M1) << c.label();
  }
  const auto mid = map_.available_best_rate(1.2);
  ASSERT_EQ(mid.size(), 3u);
  for (const auto& c : mid) {
    if (c.mode == phy::LinkMode::Backscatter) {
      EXPECT_EQ(c.rate, phy::Bitrate::k100);
    } else {
      EXPECT_EQ(c.rate, phy::Bitrate::M1);
    }
  }
}

TEST_F(RegimesTest, RegimeBCandidatesHaveNoBackscatter) {
  for (const auto& c : map_.available(3.0)) {
    EXPECT_NE(c.mode, phy::LinkMode::Backscatter) << c.label();
  }
  const auto best = map_.available_best_rate(3.0);
  EXPECT_EQ(best.size(), 2u);  // active + passive
}

TEST_F(RegimesTest, CandidatesCarryPowerTableEntries) {
  for (const auto& c : map_.available_best_rate(0.3)) {
    const auto& reference = table_.candidate(c.mode, c.rate);
    EXPECT_EQ(c, reference);
  }
}

TEST_F(RegimesTest, RegimeNames) {
  EXPECT_STREQ(to_string(Regime::A), "A");
  EXPECT_STREQ(to_string(Regime::B), "B");
  EXPECT_STREQ(to_string(Regime::C), "C");
}

}  // namespace
}  // namespace braidio::core
