#include "core/mobility_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "plan/offload.hpp"
#include "util/units.hpp"

namespace braidio::core {
namespace {

class MobilityTest : public ::testing::Test {
 protected:
  MobilitySimulator sim_{backends::braidio_backend()};
};

TEST(MobilityTraceTest, InterpolatesAndClamps) {
  MobilityTrace trace({{0.0, 1.0}, {10.0, 3.0}, {20.0, 3.0}});
  EXPECT_DOUBLE_EQ(trace.distance_at(util::Seconds(0.0)), 1.0);
  EXPECT_DOUBLE_EQ(trace.distance_at(util::Seconds(5.0)), 2.0);
  EXPECT_DOUBLE_EQ(trace.distance_at(util::Seconds(15.0)), 3.0);
  // Clamp past the end.
  EXPECT_DOUBLE_EQ(trace.distance_at(util::Seconds(99.0)), 3.0);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 20.0);
}

TEST(MobilityTraceTest, Validation) {
  EXPECT_THROW(MobilityTrace({{0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MobilityTrace({{1.0, 1.0}, {2.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(MobilityTrace({{0.0, 1.0}, {0.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(MobilityTrace({{0.0, 1.0}, {1.0, -2.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      MobilityTrace::random_walk(2.0, 1.0, 1.4, util::Seconds(60.0), 1),
      std::invalid_argument);
}

TEST(MobilityTraceTest, RandomWalkStaysInBounds) {
  const auto trace =
      MobilityTrace::random_walk(0.3, 5.0, 1.4, util::Seconds(120.0), 7);
  EXPECT_GE(trace.duration_s(), 120.0);
  for (double t = 0.0; t <= trace.duration_s(); t += 0.5) {
    const double d = trace.distance_at(util::Seconds(t));
    EXPECT_GE(d, 0.3 - 1e-9);
    EXPECT_LE(d, 5.0 + 1e-9);
  }
  // Deterministic per seed.
  const auto again =
      MobilityTrace::random_walk(0.3, 5.0, 1.4, util::Seconds(120.0), 7);
  EXPECT_DOUBLE_EQ(trace.distance_at(util::Seconds(33.0)),
                   again.distance_at(util::Seconds(33.0)));
}

TEST_F(MobilityTest, StaticTraceMatchesLifetimeModelRates) {
  // A constant-distance "trace" must reproduce the static planner's
  // throughput and drain over the window.
  MobilityTrace still({{0.0, 0.5}, {100.0, 0.5}});
  MobilitySimConfig cfg;
  const auto outcome = sim_.run(still, cfg);
  ASSERT_FALSE(outcome.samples.empty());
  // All samples in Regime A with the same plan.
  for (const auto& s : outcome.samples) {
    EXPECT_EQ(s.regime, Regime::A);
    EXPECT_EQ(s.plan, outcome.samples.front().plan);
  }
  EXPECT_EQ(outcome.plan_changes, 0u);
  // Throughput ~1 Mbps (full-rate braid) for 100 s.
  EXPECT_NEAR(outcome.total_bits, 1e8, 2e6);
  // Time-limited window: same throughput as Bluetooth, far less watch
  // energy per bit.
  EXPECT_NEAR(outcome.throughput_ratio_vs_bluetooth(), 1.0, 0.02);
  EXPECT_GT(outcome.lifetime_gain_vs_bluetooth(), 2.0);
}

TEST_F(MobilityTest, RegimeCrossingsChangeThePlan) {
  // Walk from 0.4 m out to 4.5 m: the plan must change as backscatter and
  // then high-rate passive drop out.
  MobilityTrace walk({{0.0, 0.4}, {30.0, 4.5}, {40.0, 4.5}});
  MobilitySimConfig cfg;
  const auto outcome = sim_.run(walk, cfg);
  EXPECT_GT(outcome.plan_changes, 1u);
  EXPECT_EQ(outcome.samples.front().regime, Regime::A);
  EXPECT_EQ(outcome.samples.back().regime, Regime::B);
}

TEST_F(MobilityTest, OutOfRangeIdlesTheRadios) {
  MobilityTrace far({{0.0, 30.0}, {10.0, 30.0}});
  MobilitySimConfig cfg;
  const auto outcome = sim_.run(far, cfg);
  EXPECT_DOUBLE_EQ(outcome.total_bits, 0.0);
  for (const auto& s : outcome.samples) {
    EXPECT_FALSE(s.link_up);
  }
  // Only the idle floor drains.
  const auto& last = outcome.samples.back();
  EXPECT_LT(last.device1_joules_used, 1e-3);
}

TEST_F(MobilityTest, EnergyConservationAndMonotonicity) {
  const auto trace =
      MobilityTrace::random_walk(0.3, 5.5, 1.4, util::Seconds(60.0), 3);
  MobilitySimConfig cfg;
  const auto outcome = sim_.run(trace, cfg);
  double prev_bits = -1.0, prev_e1 = -1.0;
  for (const auto& s : outcome.samples) {
    EXPECT_GE(s.bits_so_far, prev_bits);
    EXPECT_GE(s.device1_joules_used, prev_e1);
    prev_bits = s.bits_so_far;
    prev_e1 = s.device1_joules_used;
  }
  // Bounded by the battery.
  EXPECT_LE(outcome.samples.back().device1_joules_used,
            util::wh_to_joules(cfg.e1.value()) + 1e-9);
}

TEST_F(MobilityTest, AsymmetricPairKeepsWinningWhileMoving) {
  // Watch -> phone on random walks within ~4 m: Braidio must beat
  // Bluetooth over the whole trace even though modes come and go.
  // Braidio trades some throughput at distance for watch lifetime. A walk
  // spends much of its time beyond the backscatter limit (watch is the
  // transmitter, so only Regime A helps it), diluting the gain — how much
  // depends on the walk (1.09-1.41 over walks 1-64), but every walk must
  // remain a win and the typical one a clear win.
  constexpr int kWalks = 32;
  double gain_sum = 0.0;
  for (std::uint64_t walk = 1; walk <= kWalks; ++walk) {
    SCOPED_TRACE(walk);
    const auto trace =
        MobilityTrace::random_walk(0.3, 4.0, 1.4, util::Seconds(120.0), walk);
    MobilitySimConfig cfg;
    cfg.e1 = util::WattHours(0.78);
    cfg.e2 = util::WattHours(6.55);
    const auto outcome = sim_.run(trace, cfg);
    EXPECT_GT(outcome.lifetime_gain_vs_bluetooth(), 1.05);
    EXPECT_LE(outcome.throughput_ratio_vs_bluetooth(), 1.001);
    EXPECT_GT(outcome.replans, 50u);
    gain_sum += outcome.lifetime_gain_vs_bluetooth();
  }
  EXPECT_GT(gain_sum / kWalks, 1.2);
}

TEST_F(MobilityTest, BidirectionalTrafficSupported) {
  MobilityTrace still({{0.0, 0.5}, {30.0, 0.5}});
  MobilitySimConfig cfg;
  cfg.bidirectional = true;
  const auto outcome = sim_.run(still, cfg);
  EXPECT_GT(outcome.total_bits, 0.0);
  // Bidirectional plans carry reverse legs; summary shows "|rev:".
  EXPECT_NE(outcome.samples.front().plan.find("rev:"), std::string::npos);
}

TEST_F(MobilityTest, RejectsBadConfig) {
  MobilityTrace still({{0.0, 0.5}, {1.0, 0.5}});
  MobilitySimConfig cfg;
  cfg.replan_interval = util::Seconds(0.0);
  EXPECT_THROW(sim_.run(still, cfg), std::invalid_argument);
}

TEST(MobilityVsLifetime, ConstantTracesPlanLikeTheLifetimeModel) {
  // Both fluid engines run plan_link at the default dwell. With one
  // replan interval spanning a trace twice the lifetime, mobility is the
  // lifetime model exactly. With ~1,000 replans each interval re-solves
  // for the energy ratio that has drifted; the amortized plan is not
  // proportional, so the total lands between the default-dwell and the
  // infinite-dwell lifetimes.
  const hal::RadioBackend& backend = backends::braidio_backend();
  const MobilitySimulator mobility(backend);
  const LifetimeSimulator lifetime(backend);
  const std::pair<double, double> batteries_wh[] = {
      {0.78, 6.55}, {6.55, 0.78}, {1.0, 1.0}, {0.01, 6.55}, {6.55, 0.01}};
  for (bool bidirectional : {false, true}) {
    for (double d : {0.3, 0.5, 1.0, 2.0, 3.0, 4.5}) {
      for (const auto& [wh1, wh2] : batteries_wh) {
        SCOPED_TRACE(testing::Message()
                     << "d=" << d << " " << wh1 << ":" << wh2
                     << " Wh bidirectional=" << bidirectional);
        const auto e1 = util::to_joules(util::WattHours(wh1));
        const auto e2 = util::to_joules(util::WattHours(wh2));
        LifetimeConfig cfg;
        cfg.distance_m = d;
        cfg.bidirectional = bidirectional;
        const auto life = lifetime.braidio(e1, e2, cfg);
        LifetimeConfig ideal = cfg;
        ideal.bits_per_dwell = plan::kInfiniteDwell;
        const double ideal_bits = lifetime.braidio(e1, e2, ideal).bits;

        const double span_s = 2.0 * life.seconds;
        const MobilityTrace still({{0.0, d}, {span_s, d}});
        MobilitySimConfig mcfg;
        mcfg.e1 = util::WattHours(wh1);
        mcfg.e2 = util::WattHours(wh2);
        mcfg.bidirectional = bidirectional;
        mcfg.replan_interval = util::Seconds(span_s);
        EXPECT_EQ(mobility.run(still, mcfg).total_bits, life.bits);

        mcfg.replan_interval = util::Seconds(life.seconds / 1000.0);
        const double bits = mobility.run(still, mcfg).total_bits;
        // 1e-12 relative slack: summing ~1,000 intervals rounds, and an
        // exclusive-mode plan is the lifetime model exactly.
        EXPECT_LE(life.bits * (1.0 - 1e-12), bits);
        EXPECT_LE(bits, ideal_bits * (1.0 + 1e-12));
      }
    }
  }
}

}  // namespace
}  // namespace braidio::core
