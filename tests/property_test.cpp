// Cross-cutting randomized invariants over the whole stack.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "phy/link_budget.hpp"
#include "plan/offload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio {
namespace {

using JL = util::Joules;

class PropertyTest : public ::testing::Test {
 protected:
  core::PowerTable table_;
  core::LifetimeSimulator sim_{backends::braidio_backend()};
};

TEST_F(PropertyTest, BraidioNeverLosesToItsOwnModes) {
  // The braid dominates every exclusive mode (it can always degenerate to
  // one), across random energies and distances.
  util::Rng rng(0xB1AD);
  for (int trial = 0; trial < 300; ++trial) {
    core::LifetimeConfig cfg;
    cfg.distance_m = rng.uniform(0.2, 5.0);
    cfg.bits_per_dwell = plan::kInfiniteDwell;
    const double e1 = rng.uniform(100.0, 1e6);
    const double e2 = rng.uniform(100.0, 1e6);
    const double braid = sim_.braidio(JL(e1), JL(e2), cfg).bits;
    const double best = sim_.best_single_mode_bits(JL(e1), JL(e2), cfg);
    EXPECT_GE(braid, best * (1.0 - 1e-9))
        << "d=" << cfg.distance_m << " e1=" << e1 << " e2=" << e2;
  }
}

TEST_F(PropertyTest, BraidioNeverLosesToBluetooth) {
  util::Rng rng(0xB1AE);
  for (int trial = 0; trial < 300; ++trial) {
    core::LifetimeConfig cfg;
    cfg.distance_m = rng.uniform(0.2, 5.8);
    cfg.bidirectional = rng.bernoulli(0.5);
    const double e1 = rng.uniform(100.0, 1e6);
    const double e2 = rng.uniform(100.0, 1e6);
    const double braid = sim_.braidio(JL(e1), JL(e2), cfg).bits;
    const double bt = sim_.bluetooth_bits(JL(e1), JL(e2), cfg.bidirectional);
    EXPECT_GE(braid, bt * (1.0 - 1e-9))
        << "d=" << cfg.distance_m << " bidir=" << cfg.bidirectional;
  }
}

TEST_F(PropertyTest, MoreEnergyNeverMeansFewerBits) {
  // Monotonicity: growing either battery cannot reduce the braid's total.
  util::Rng rng(0xB1AF);
  for (int trial = 0; trial < 200; ++trial) {
    core::LifetimeConfig cfg;
    cfg.distance_m = rng.uniform(0.2, 5.0);
    const double e1 = rng.uniform(100.0, 1e5);
    const double e2 = rng.uniform(100.0, 1e5);
    const double base = sim_.braidio(JL(e1), JL(e2), cfg).bits;
    EXPECT_GE(sim_.braidio(JL(e1 * 1.5), JL(e2), cfg).bits,
              base * (1.0 - 1e-9));
    EXPECT_GE(sim_.braidio(JL(e1), JL(e2 * 1.5), cfg).bits,
              base * (1.0 - 1e-9));
  }
}

TEST_F(PropertyTest, ScaleInvarianceOfGains) {
  // Gains depend only on the energy *ratio*: scaling both batteries by a
  // common factor leaves every gain unchanged.
  util::Rng rng(0xB1B0);
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.6;
  for (int trial = 0; trial < 100; ++trial) {
    const double e1 = rng.uniform(100.0, 1e5);
    const double e2 = rng.uniform(100.0, 1e5);
    const double s = rng.uniform(2.0, 50.0);
    const double g1 = sim_.braidio(JL(e1), JL(e2), cfg).bits /
                      sim_.bluetooth_bits(JL(e1), JL(e2), false);
    const double g2 = sim_.braidio(JL(s * e1), JL(s * e2), cfg).bits /
                      sim_.bluetooth_bits(JL(s * e1), JL(s * e2), false);
    EXPECT_NEAR(g1 / g2, 1.0, 1e-6);
  }
}

TEST_F(PropertyTest, BitsNeverExceedTheEnergyBound) {
  // No plan can move more bits than either battery divided by the
  // cheapest conceivable per-bit cost at its end.
  util::Rng rng(0xB1B1);
  double min_t = 1e300, min_r = 1e300;
  for (const auto& c : table_.candidates()) {
    min_t = std::min(min_t, c.tx_joules_per_bit());
    min_r = std::min(min_r, c.rx_joules_per_bit());
  }
  for (int trial = 0; trial < 200; ++trial) {
    core::LifetimeConfig cfg;
    cfg.distance_m = rng.uniform(0.2, 5.0);
    const double e1 = rng.uniform(10.0, 1e6);
    const double e2 = rng.uniform(10.0, 1e6);
    const double bits = sim_.braidio(JL(e1), JL(e2), cfg).bits;
    EXPECT_LE(bits, e1 / min_t * (1.0 + 1e-9));
    EXPECT_LE(bits, e2 / min_r * (1.0 + 1e-9));
  }
}

TEST_F(PropertyTest, GainCollapsesExactlyWhereOffloadDies) {
  // For any energies, the gain over Bluetooth is exactly 1 wherever only
  // the active mode remains (Regime C).
  util::Rng rng(0xB1B2);
  for (int trial = 0; trial < 100; ++trial) {
    core::LifetimeConfig cfg;
    cfg.distance_m = rng.uniform(5.2, 6.0);
    cfg.bits_per_dwell = plan::kInfiniteDwell;
    const double e1 = rng.uniform(100.0, 1e6);
    const double e2 = rng.uniform(100.0, 1e6);
    const double braid = sim_.braidio(JL(e1), JL(e2), cfg).bits;
    const double bt = sim_.bluetooth_bits(JL(e1), JL(e2), false);
    EXPECT_NEAR(braid / bt, 1.0, 1e-9) << cfg.distance_m;
  }
}

TEST_F(PropertyTest, RangeAndAvailabilityAgreeForRandomBudgets) {
  // LinkBudget invariant under random re-anchoring: available() flips
  // exactly at range_m().
  util::Rng rng(0xB1B3);
  for (int trial = 0; trial < 50; ++trial) {
    phy::LinkBudgetConfig cfg;
    cfg.backscatter_range_1m_bps = rng.uniform(0.4, 1.4);
    cfg.backscatter_range_100k = cfg.backscatter_range_1m_bps +
                                 rng.uniform(0.2, 1.2);
    cfg.backscatter_range_10k = cfg.backscatter_range_100k +
                                rng.uniform(0.2, 1.2);
    cfg.passive_range_1m_bps = rng.uniform(2.0, 4.5);
    cfg.passive_range_100k = cfg.passive_range_1m_bps + rng.uniform(0.1, 1.0);
    cfg.passive_range_10k = cfg.passive_range_100k + rng.uniform(0.1, 1.0);
    phy::LinkBudget budget(cfg);
    for (phy::LinkMode mode :
         {phy::LinkMode::Backscatter, phy::LinkMode::PassiveRx}) {
      for (phy::Bitrate rate : phy::kAllBitrates) {
        const double r = budget.range_m(mode, rate);
        EXPECT_TRUE(budget.available(mode, rate, r * 0.98));
        EXPECT_FALSE(budget.available(mode, rate, r * 1.02));
      }
    }
  }
}

}  // namespace
}  // namespace braidio
