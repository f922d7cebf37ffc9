// Property suite for the carrier-offload planner (Eq. 1).
#include "plan/offload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "core/power_table.hpp"
#include "core/regimes.hpp"
#include "hal/backend.hpp"
#include "util/units.hpp"

namespace braidio::plan {
namespace {

using core::PowerTable;

std::vector<ModeCandidate> full_rate_candidates() {
  PowerTable table;
  using phy::Bitrate;
  using phy::LinkMode;
  return {table.candidate(LinkMode::Active, Bitrate::M1),
          table.candidate(LinkMode::PassiveRx, Bitrate::M1),
          table.candidate(LinkMode::Backscatter, Bitrate::M1)};
}

double ratio_of(const OffloadPlan& plan) {
  return plan.tx_joules_per_bit / plan.rx_joules_per_bit;
}

TEST(Offload, Section4WorkedExample) {
  // Sec. 4's example outcome: a 120 mW carrier braided between the ends at
  // a 10:1 energy ratio lands at 90.9% / 9.1% carrier ownership, i.e.
  // d1 ~ 109 mW and d2 ~ 10.9 mW. (The paper's quoted per-mode powers are
  // garbled, but 109 = 0.909 x 120 and 10.9 = 0.091 x 120 pin the braid.)
  ModeCandidate carrier_at_tx{phy::LinkMode::PassiveRx, phy::Bitrate::M1,
                              0.120, 10e-6};
  ModeCandidate carrier_at_rx{phy::LinkMode::Backscatter, phy::Bitrate::M1,
                              10e-6, 0.120};
  const auto plan =
      OffloadPlanner::plan({carrier_at_tx, carrier_at_rx}, 10.0, 1.0);
  ASSERT_TRUE(plan.proportional);
  ASSERT_EQ(plan.entries.size(), 2u);
  double frac_carrier_at_tx = 0.0;
  for (const auto& e : plan.entries) {
    if (e.candidate == carrier_at_tx) frac_carrier_at_tx = e.fraction;
  }
  EXPECT_NEAR(frac_carrier_at_tx, 0.909, 0.002);
  EXPECT_NEAR(ratio_of(plan), 10.0, 1e-9);
  // Per-bit drains at 1 Mbps: 109 mW -> 109 nJ/bit, 10.9 mW -> 10.9 nJ/bit.
  EXPECT_NEAR(plan.tx_joules_per_bit * 1e9, 109.0, 1.0);
  EXPECT_NEAR(plan.rx_joules_per_bit * 1e9, 10.9, 0.2);
}

TEST(Offload, SymmetricEnergiesBraidPassiveAndBackscatter) {
  // At E1 = E2 the cheapest proportional braid alternates the carrier:
  // the Fig. 15 diagonal behavior.
  const auto plan = OffloadPlanner::plan(full_rate_candidates(), 100.0,
                                         100.0);
  ASSERT_TRUE(plan.proportional);
  EXPECT_NEAR(ratio_of(plan), 1.0, 1e-9);
  ASSERT_EQ(plan.entries.size(), 2u);
  bool has_passive = false, has_backscatter = false;
  for (const auto& e : plan.entries) {
    has_passive |= e.candidate.mode == phy::LinkMode::PassiveRx;
    has_backscatter |= e.candidate.mode == phy::LinkMode::Backscatter;
  }
  EXPECT_TRUE(has_passive);
  EXPECT_TRUE(has_backscatter);
  // Each end averages ~64.5 mW (vs 92+ mW for pure active).
  EXPECT_NEAR(plan.tx_joules_per_bit * 1e9, 64.5, 0.5);
  // Beats the active-only alternative.
  const auto active = full_rate_candidates()[0];  // copy: temporary vector
  EXPECT_LT(plan.total_joules_per_bit(),
            active.tx_joules_per_bit() + active.rx_joules_per_bit());
}

TEST(Offload, ExtremeAsymmetryPicksPureSingleMode) {
  const auto candidates = full_rate_candidates();
  // Receiver-rich: E1/E2 = 1/3546 is exactly the backscatter corner.
  const auto plan = OffloadPlanner::plan(candidates, 1.0, 3546.0);
  ASSERT_TRUE(plan.proportional);
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].candidate.mode, phy::LinkMode::Backscatter);
  EXPECT_NEAR(plan.entries[0].fraction, 1.0, 1e-9);
  // Transmitter-rich: E1/E2 = 2546 is exactly the passive corner.
  const auto tx_rich = OffloadPlanner::plan(candidates, 2546.0, 1.0);
  ASSERT_TRUE(tx_rich.proportional);
  ASSERT_EQ(tx_rich.entries.size(), 1u);
  EXPECT_EQ(tx_rich.entries[0].candidate.mode, phy::LinkMode::PassiveRx);
}

TEST(Offload, InfeasibleRatioClampsToBestCorner) {
  const auto candidates = full_rate_candidates();
  // E1/E2 far beyond the achievable span (TX side hugely energy-rich):
  // proportionality impossible; E2 is the binding end either way, so the
  // planner must minimize the receiver's per-bit cost -> passive-RX.
  const auto plan = OffloadPlanner::plan(candidates, 1e9, 1.0);
  EXPECT_FALSE(plan.proportional);
  ASSERT_EQ(plan.entries.size(), 1u);
  EXPECT_EQ(plan.entries[0].candidate.mode, phy::LinkMode::PassiveRx);
  // Mirror case: RX hugely rich -> backscatter protects the transmitter.
  const auto mirror = OffloadPlanner::plan(candidates, 1.0, 1e9);
  EXPECT_FALSE(mirror.proportional);
  ASSERT_EQ(mirror.entries.size(), 1u);
  EXPECT_EQ(mirror.entries[0].candidate.mode, phy::LinkMode::Backscatter);
}

TEST(Offload, PlanCostsAreConvexCombinations) {
  const auto candidates = full_rate_candidates();
  const auto plan = OffloadPlanner::plan(candidates, 5.0, 2.0);
  double t = 0.0, r = 0.0, total_fraction = 0.0;
  for (const auto& e : plan.entries) {
    t += e.fraction * e.candidate.tx_joules_per_bit();
    r += e.fraction * e.candidate.rx_joules_per_bit();
    total_fraction += e.fraction;
    EXPECT_GT(e.fraction, 0.0);
    EXPECT_LE(e.fraction, 1.0 + 1e-12);
  }
  EXPECT_NEAR(total_fraction, 1.0, 1e-9);
  EXPECT_NEAR(t, plan.tx_joules_per_bit, 1e-18);
  EXPECT_NEAR(r, plan.rx_joules_per_bit, 1e-18);
}

TEST(Offload, OptimalityAgainstDenseGridSearch) {
  // Exhaustive check of the pairwise solver: no 3-way mixture over a dense
  // fraction grid may beat the planner's cost while staying proportional.
  const auto candidates = full_rate_candidates();
  const double e1 = 7.0, e2 = 1.0;
  const auto plan = OffloadPlanner::plan(candidates, e1, e2);
  ASSERT_TRUE(plan.proportional);
  const double k = e1 / e2;
  double best_grid = 1e300;
  const int n = 300;
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j + i <= n; ++j) {
      const double p0 = static_cast<double>(i) / n;
      const double p1 = static_cast<double>(j) / n;
      const double p2 = 1.0 - p0 - p1;
      double t = 0.0, r = 0.0;
      const double ps[3] = {p0, p1, p2};
      for (int c = 0; c < 3; ++c) {
        t += ps[c] * candidates[static_cast<std::size_t>(c)]
                         .tx_joules_per_bit();
        r += ps[c] * candidates[static_cast<std::size_t>(c)]
                         .rx_joules_per_bit();
      }
      if (std::fabs(t / r - k) < 0.02 * k) {
        best_grid = std::min(best_grid, t + r);
      }
    }
  }
  // Grid points only approximate the constraint, so allow a small slack.
  EXPECT_LE(plan.total_joules_per_bit(), best_grid * 1.02);
}

TEST(Offload, BitsUntilDepletionBalancedWhenProportional) {
  const auto candidates = full_rate_candidates();
  const double e1 = util::wh_to_joules(0.78);   // Apple Watch
  const double e2 = util::wh_to_joules(6.55);   // iPhone 6S
  const auto plan = OffloadPlanner::plan(candidates, e1, e2);
  ASSERT_TRUE(plan.proportional);
  const double bits = plan.bits_until_depletion(e1, e2);
  // Both ends die together under a proportional plan.
  EXPECT_NEAR(e1 / plan.tx_joules_per_bit, e2 / plan.rx_joules_per_bit,
              bits * 1e-6);
  EXPECT_NEAR(bits, e1 / plan.tx_joules_per_bit, 1.0);
}

TEST(Offload, MoreCandidatesNeverHurt) {
  PowerTable table;
  const auto all = table.candidates();
  const auto few = full_rate_candidates();
  for (double k : {0.001, 0.2, 1.0, 40.0, 900.0}) {
    const auto plan_few = OffloadPlanner::plan(few, k, 1.0);
    const auto plan_all = OffloadPlanner::plan(all, k, 1.0);
    if (plan_few.proportional) {
      EXPECT_TRUE(plan_all.proportional) << "k=" << k;
      EXPECT_LE(plan_all.total_joules_per_bit(),
                plan_few.total_joules_per_bit() * (1.0 + 1e-9))
          << "k=" << k;
    }
  }
}

TEST(Offload, SummaryMentionsEntriesAndStatus) {
  const auto plan = OffloadPlanner::plan(full_rate_candidates(), 1.0, 1.0);
  const auto s = plan.summary();
  EXPECT_NE(s.find("%"), std::string::npos);
  EXPECT_NE(s.find("proportional"), std::string::npos);
}

TEST(Offload, InputValidation) {
  EXPECT_THROW(OffloadPlanner::plan({}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(OffloadPlanner::plan(full_rate_candidates(), 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(OffloadPlanner::plan(full_rate_candidates(), 1.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(OffloadPlanner::plan_bidirectional({}, 1.0, 1.0),
               std::invalid_argument);
}

TEST(OffloadBidirectional, SymmetricCaseIsSelfConsistent) {
  const auto plan =
      OffloadPlanner::plan_bidirectional(full_rate_candidates(), 1.0, 1.0);
  ASSERT_TRUE(plan.proportional);
  EXPECT_NEAR(ratio_of(plan), 1.0, 1e-9);
  // A composite entry must carry a reverse leg.
  for (const auto& e : plan.entries) {
    EXPECT_TRUE(e.reverse.has_value());
  }
  // The symmetric composite (carrier here fwd / carrier there rev) gives
  // each end half the carrier budget: ~64.5 nJ/bit.
  EXPECT_NEAR(plan.tx_joules_per_bit * 1e9, 64.5, 0.7);
}

TEST(OffloadBidirectional, AsymmetryFavorsSmallDeviceInBothRoles) {
  // With a rich device 2, device 1 should hold the carrier in neither
  // direction: tag (backscatter TX) when sending, envelope detector
  // (passive RX) when receiving.
  const auto plan = OffloadPlanner::plan_bidirectional(
      full_rate_candidates(), 1.0, 2000.0);
  ASSERT_TRUE(plan.proportional);
  for (const auto& e : plan.entries) {
    ASSERT_TRUE(e.reverse.has_value());
    if (e.fraction > 0.5) {
      EXPECT_EQ(e.candidate.mode, phy::LinkMode::Backscatter);
      EXPECT_EQ(e.reverse->mode, phy::LinkMode::PassiveRx);
    }
  }
}

class ProportionalitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ProportionalitySweep, AchievesExactRatioInsideSpan) {
  // Property: for any target drain ratio k = d1/d2 within the achievable
  // span [1/3546 (pure backscatter), 2546 (pure passive)] the plan is
  // proportional and hits the ratio exactly.
  const double k = GetParam();
  const auto plan = OffloadPlanner::plan(full_rate_candidates(), k, 1.0);
  ASSERT_TRUE(plan.proportional) << "k=" << k;
  EXPECT_NEAR(ratio_of(plan) / k, 1.0, 1e-6) << "k=" << k;
  // Optimality sanity: never worse than double the cheapest candidate sum.
  EXPECT_LT(plan.total_joules_per_bit(), 3e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, ProportionalitySweep,
    ::testing::Values(1.0 / 3546.0, 1e-3, 0.01, 0.1, 0.5, 0.9524, 1.0, 2.0,
                      10.0, 100.0, 383.0, 1000.0, 2546.0));

class BidirectionalSweep : public ::testing::TestWithParam<double> {};

TEST_P(BidirectionalSweep, ProportionalAndCheaperPerBitThanTwoUnidirectional) {
  const double k = GetParam();
  const auto candidates = full_rate_candidates();
  const auto bi = OffloadPlanner::plan_bidirectional(candidates, k, 1.0);
  ASSERT_TRUE(bi.proportional) << "k=" << k;
  EXPECT_NEAR(ratio_of(bi) / k, 1.0, 1e-6);
  // Lower bound: a composite bit can never cost less than the cheapest
  // half-bit pair.
  EXPECT_GT(bi.total_joules_per_bit(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ratios, BidirectionalSweep,
                         ::testing::Values(0.01, 0.2, 1.0, 5.0, 100.0));

// ---------- heterogeneous capability pairs (HAL backends) ----------

const hal::Capabilities& backend_caps(const char* name) {
  backends::register_all();
  return hal::BackendRegistry::instance().get(name).caps();
}

TEST(OffloadHeterogeneous, BraidioTagToReaderIsBackscatterOnly) {
  // A braidio tag uplinking to a commercial reader: Active needs both
  // ends active-capable (the reader is not); PassiveRx needs a lattice
  // entry the reader carries (its lattice is backscatter-only). What
  // remains is backscatter at every shared rate, costed per end — tag
  // reflection power against the reader's 640 mW decode chain.
  const auto candidates = OffloadPlanner::intersect_candidates(
      backend_caps(backends::kBraidio),
      backend_caps(backends::kReaderPassive));
  const PowerTable table;
  ASSERT_EQ(candidates.size(), 3u);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.mode, phy::LinkMode::Backscatter);
    const auto& tag = table.candidate(phy::LinkMode::Backscatter, c.rate);
    EXPECT_DOUBLE_EQ(c.tx_power_w, tag.tx_power_w);
    EXPECT_DOUBLE_EQ(c.rx_power_w, 0.64);  // AS3993-class reader
  }
}

TEST(OffloadHeterogeneous, PlanChargesEachEndItsOwnLattice) {
  const auto plan = OffloadPlanner::plan(
      OffloadPlanner::intersect_candidates(
          backend_caps(backends::kBraidio),
          backend_caps(backends::kReaderPassive)),
      1.0, 2000.0);
  ASSERT_FALSE(plan.entries.empty());
  double fractions = 0.0;
  for (const auto& e : plan.entries) {
    EXPECT_EQ(e.candidate.mode, phy::LinkMode::Backscatter);
    fractions += e.fraction;
  }
  EXPECT_NEAR(fractions, 1.0, 1e-9);
  // The wall-powered reader holds the carrier and decodes coherently: it
  // must be paying orders of magnitude more per bit than the tag.
  EXPECT_GT(plan.rx_joules_per_bit, 1e3 * plan.tx_joules_per_bit);
}

TEST(OffloadHeterogeneous, BlispPairMixesActiveAndBackscatter) {
  // Two BLISP-style hybrids facing each other keep the active point and
  // all three backscatter rates; PassiveRx drops out because neither
  // lattice lists a PassiveRx entry.
  const auto candidates = OffloadPlanner::intersect_candidates(
      backend_caps(backends::kBlispHybrid),
      backend_caps(backends::kBlispHybrid));
  ASSERT_EQ(candidates.size(), 4u);
  std::size_t active = 0, backscatter = 0;
  for (const auto& c : candidates) {
    if (c.mode == phy::LinkMode::Active) ++active;
    if (c.mode == phy::LinkMode::Backscatter) ++backscatter;
  }
  EXPECT_EQ(active, 1u);
  EXPECT_EQ(backscatter, 3u);
}

TEST(OffloadHeterogeneous, DisjointCapabilityPairsThrow) {
  // BLE module vs reader: no direction works. Active needs the reader
  // active-capable; backscatter needs the BLE side to reflect; passive
  // RX needs the BLE side to source a carrier.
  const auto& ble = backend_caps(backends::kBleActive);
  const auto& reader = backend_caps(backends::kReaderPassive);
  const auto none = OffloadPlanner::intersect_candidates(ble, reader);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(OffloadPlanner::intersect_candidates(reader, ble).empty());
  // Eq. 1 over an empty candidate set is an error, not an empty plan.
  EXPECT_THROW(OffloadPlanner::plan(none, 1.0, 1.0), std::invalid_argument);
}

// --- plan_link: the one planning step every engine runs ------------------

OffloadPlan eq1(const std::vector<ModeCandidate>& candidates, double e1,
                double e2, bool bidirectional) {
  return bidirectional
             ? OffloadPlanner::plan_bidirectional(candidates, e1, e2)
             : OffloadPlanner::plan(candidates, e1, e2);
}

TEST(PlanLink, InfiniteDwellIsEq1WhereverTheBraidWins) {
  // The plans BraidedLink and `braidio_cli plan` run: with no switch
  // cost to amortize, plan_link hands back Eq. 1's plan field for field
  // unless a lone mode moves more bits.
  const core::RegimeMap map(backends::braidio_backend());
  int braid_wins = 0;
  for (bool bidirectional : {false, true}) {
    for (double d : {0.3, 0.5, 1.0, 2.0, 3.0, 4.5, 5.5}) {
      const auto candidates = map.available_best_rate(d);
      for (double ratio : {1e-4, 1e-2, 0.12, 1.0, 8.4, 1e2, 1e4}) {
        const double e1 = 1e3 * ratio;
        const double e2 = 1e3;
        const auto raw = eq1(candidates, e1, e2, bidirectional);
        const auto linked =
            plan_link(map.caps(), candidates, e1, e2, bidirectional,
                      kInfiniteDwell);
        double best_single = 0.0;
        for (const auto& c : candidates) {
          best_single = std::max(
              best_single, single_mode_bits(c, e1, e2, bidirectional));
        }
        SCOPED_TRACE(testing::Message() << "d=" << d << " ratio=" << ratio
                                        << " bidirectional="
                                        << bidirectional);
        if (raw.bits_until_depletion(e1, e2) < best_single) {
          ASSERT_EQ(linked.entries.size(), 1u);
          EXPECT_FALSE(linked.proportional);
          EXPECT_EQ(linked.bits_until_depletion(e1, e2), best_single);
          continue;
        }
        ++braid_wins;
        ASSERT_EQ(linked.entries.size(), raw.entries.size());
        for (std::size_t i = 0; i < raw.entries.size(); ++i) {
          EXPECT_EQ(linked.entries[i].candidate, raw.entries[i].candidate);
          EXPECT_EQ(linked.entries[i].reverse, raw.entries[i].reverse);
          EXPECT_EQ(linked.entries[i].fraction, raw.entries[i].fraction);
        }
        EXPECT_EQ(linked.proportional, raw.proportional);
        EXPECT_EQ(linked.tx_joules_per_bit, raw.tx_joules_per_bit);
        EXPECT_EQ(linked.rx_joules_per_bit, raw.rx_joules_per_bit);
        EXPECT_EQ(linked.meets_throughput, raw.meets_throughput);
      }
    }
  }
  EXPECT_GT(braid_wins, 0);
}

TEST(PlanLink, PicksALoneModeThatBeatsTheProportionalMix) {
  // Per-bit costs at 1 Mbps, in nJ: A = (T, R) = (1, 0.1), B = (2, 10).
  // With E1 = E2, Eq. 1 mixes them at p = 8 / 8.9 ~ 0.899 and drains
  // 1.101 nJ per bit at each end: 0.908 units of bits, where A alone
  // moves 1 (one unit = 1e9 bits per joule). No switch cost is needed
  // for the lone mode to win.
  const ModeCandidate a{phy::LinkMode::PassiveRx, phy::Bitrate::M1, 1e-3,
                        1e-4};
  const ModeCandidate b{phy::LinkMode::Backscatter, phy::Bitrate::M1, 2e-3,
                        1e-2};
  const double e = 1.0;
  const auto raw = OffloadPlanner::plan({a, b}, e, e);
  ASSERT_TRUE(raw.proportional);
  ASSERT_EQ(raw.entries.size(), 2u);
  EXPECT_NEAR(raw.entries[0].fraction, 8.0 / 8.9, 1e-9);
  EXPECT_NEAR(raw.bits_until_depletion(e, e) / 1e9, 0.908, 1e-3);

  const auto linked = plan_link(backends::braidio_backend().caps(), {a, b},
                                e, e, false, kInfiniteDwell);
  ASSERT_EQ(linked.entries.size(), 1u);
  EXPECT_EQ(linked.entries[0].candidate, a);
  EXPECT_EQ(linked.entries[0].fraction, 1.0);
  EXPECT_FALSE(linked.proportional);
  EXPECT_NEAR(linked.bits_until_depletion(e, e) / 1e9, 1.0, 1e-12);
}

TEST(PlanLink, RejectsANonPositiveDwell) {
  const core::RegimeMap map(backends::braidio_backend());
  const auto candidates = map.available_best_rate(0.5);
  for (double dwell : {0.0, -1.0, std::nan("")}) {
    for (bool bidirectional : {false, true}) {
      EXPECT_THROW(
          plan_link(map.caps(), candidates, 1.0, 1.0, bidirectional, dwell),
          std::invalid_argument)
          << dwell;
    }
  }
}

}  // namespace
}  // namespace braidio::plan
