// Robustness fuzzing: the parsers and solvers must never crash, hang, or
// violate their invariants on adversarial inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mac/frame.hpp"
#include "mac/probe.hpp"
#include "plan/offload.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "util/rng.hpp"

namespace braidio {
namespace {

TEST(FrameFuzz, RandomBytesNeverCrashTheParser) {
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto frame = mac::deserialize(bytes);
    if (frame) {
      // Anything that parses must re-serialize to the same bytes.
      EXPECT_EQ(mac::serialize(*frame), bytes);
    }
  }
}

TEST(FrameFuzz, MutatedValidFramesNeverForge) {
  util::Rng rng(0xBEEF);
  mac::Frame f;
  f.type = mac::FrameType::Data;
  f.source = 3;
  f.destination = 4;
  f.payload = {10, 20, 30, 40, 50, 60};
  const auto clean = mac::serialize(f);
  int parsed_differently = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    auto bytes = clean;
    const int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < flips; ++k) {
      const auto at =
          static_cast<std::size_t>(rng.uniform_int(0, bytes.size() - 1));
      bytes[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_int(0, 7));
    }
    if (bytes == clean) continue;
    const auto parsed = mac::deserialize(bytes);
    if (parsed && *parsed == f) {
      // A CRC-16 collision that reconstructs the identical frame is
      // acceptable; a *different* frame parsing fine is the norm when the
      // corrupted bits land in the payload and the CRC collides.
      ++parsed_differently;
    }
  }
  // With 16 bits of CRC, surviving forgeries must be rare.
  EXPECT_LT(parsed_differently, 10);
}

TEST(ControlPayloadFuzz, ParsersRejectGarbageGracefully) {
  util::Rng rng(0xCAFE);
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 16));
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)mac::parse_probe(bytes);
    (void)mac::parse_probe_report(bytes);
    (void)mac::parse_battery_status(bytes);
    (void)mac::parse_mode_switch(bytes);
  }
  SUCCEED();
}

TEST(PlannerFuzz, RandomCandidateSetsKeepInvariants) {
  util::Rng rng(0xACE);
  for (int trial = 0; trial < 3'000; ++trial) {
    const auto n = 1 + rng.uniform_int(0, 5);
    std::vector<plan::ModeCandidate> candidates;
    double lo_ratio = 1e300, hi_ratio = -1e300;
    for (std::uint64_t i = 0; i < n; ++i) {
      plan::ModeCandidate c;
      c.mode = hal::LinkMode::Active;
      c.rate = hal::Bitrate::M1;
      c.tx_power_w = rng.uniform(1e-6, 1.0);
      c.rx_power_w = rng.uniform(1e-6, 1.0);
      candidates.push_back(c);
      const double ratio = c.tx_power_w / c.rx_power_w;
      lo_ratio = std::min(lo_ratio, ratio);
      hi_ratio = std::max(hi_ratio, ratio);
    }
    const double e1 = rng.uniform(1.0, 1e6);
    const double e2 = rng.uniform(1.0, 1e6);
    const auto plan = plan::OffloadPlanner::plan(candidates, e1, e2);
    ASSERT_FALSE(plan.entries.empty());
    double frac = 0.0;
    for (const auto& e : plan.entries) {
      ASSERT_GT(e.fraction, 0.0);
      frac += e.fraction;
    }
    EXPECT_NEAR(frac, 1.0, 1e-6);
    EXPECT_GT(plan.tx_joules_per_bit, 0.0);
    EXPECT_GT(plan.rx_joules_per_bit, 0.0);
    const double k = e1 / e2;
    if (plan.proportional) {
      EXPECT_NEAR(plan.achieved_ratio() / k, 1.0, 1e-5);
    } else {
      // Claimed infeasible: the target really must sit outside the span.
      EXPECT_TRUE(k < lo_ratio * (1.0 + 1e-9) ||
                  k > hi_ratio * (1.0 - 1e-9))
          << "k=" << k << " span=[" << lo_ratio << "," << hi_ratio << "]";
    }
  }
}

TEST(PlannerFuzz, PlanLinkKeepsInvariantsOverRandomLatticesAndDwells) {
  // plan_link over random lattice points and switch overheads, in both
  // directions, at finite dwells and kInfiniteDwell: the plan is a
  // distribution with physical drains, and it never moves fewer bits than
  // the best exclusive mode.
  constexpr hal::LinkMode kModes[] = {hal::LinkMode::Active,
                                      hal::LinkMode::PassiveRx,
                                      hal::LinkMode::Backscatter};
  constexpr hal::Bitrate kRates[] = {hal::Bitrate::k10, hal::Bitrate::k100,
                                     hal::Bitrate::M1};
  const auto log_uniform = [](util::Rng& rng, double lo_exp, double hi_exp) {
    return std::pow(10.0, rng.uniform(lo_exp, hi_exp));
  };
  util::Rng rng(0xD1CE);
  for (int trial = 0; trial < 2'000; ++trial) {
    hal::Capabilities caps;
    for (auto& overhead : caps.switch_overhead) {
      // Table 5's overheads run 1.6e-8 to 3.1e-4 J; span none and both
      // sides of that.
      overhead.tx_joules = rng.bernoulli(0.1) ? 0.0 : log_uniform(rng, -9, -1);
      overhead.rx_joules = rng.bernoulli(0.1) ? 0.0 : log_uniform(rng, -9, -1);
    }
    std::vector<plan::ModeCandidate> candidates(1 + rng.uniform_int(0, 5));
    for (auto& c : candidates) {
      c.mode = kModes[rng.uniform_int(0, 2)];
      c.rate = kRates[rng.uniform_int(0, 2)];
      c.tx_power_w = log_uniform(rng, -6, 0);
      c.rx_power_w = log_uniform(rng, -6, 0);
    }
    const double e1 = log_uniform(rng, 0, 6);
    const double e2 = log_uniform(rng, 0, 6);
    const bool bidirectional = rng.bernoulli(0.5);
    const double dwell = rng.bernoulli(0.2) ? plan::kInfiniteDwell
                                            : log_uniform(rng, -3, 12);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " dwell " << dwell
                 << (bidirectional ? " bidirectional" : " forward"));

    const auto plan = plan::plan_link(caps, candidates, e1, e2,
                                      bidirectional, dwell);
    ASSERT_FALSE(plan.entries.empty());
    double fractions = 0.0;
    for (const auto& e : plan.entries) fractions += e.fraction;
    EXPECT_NEAR(fractions, 1.0, 1e-9);
    EXPECT_TRUE(std::isfinite(plan.tx_joules_per_bit) &&
                plan.tx_joules_per_bit >= 0.0)
        << plan.tx_joules_per_bit;
    EXPECT_TRUE(std::isfinite(plan.rx_joules_per_bit) &&
                plan.rx_joules_per_bit >= 0.0)
        << plan.rx_joules_per_bit;
    double best_single = 0.0;
    for (const auto& c : candidates) {
      best_single = std::max(
          best_single, plan::single_mode_bits(c, e1, e2, bidirectional));
    }
    EXPECT_GE(plan.bits_until_depletion(e1, e2), best_single);

    for (const double bad :
         {0.0, -dwell, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(plan::plan_link(caps, candidates, e1, e2, bidirectional,
                                   bad),
                   std::invalid_argument)
          << "dwell " << bad;
    }
  }
}

TEST(FaultTimelineFuzz, MutatedScriptsNeverThrowOrReadNaN) {
  // Mutations of one valid line per fault kind: fields swapped for
  // extreme, negative and garbage tokens, dropped or duplicated, and
  // `@<node>` scopes. parse() reports bad input and never throws; every
  // timeline it accepts answers state_at() at each edge, for every node
  // view, with a loss that is a number.
  namespace faults = sim::faults;
  const std::vector<std::string> seeds = {
      "shadowing 0.2 0.3 25", "interferer 0.5 0.2 -45 250e3",
      "dropout 0.8 0.1",      "fade 1.0 0.2 8 2e-3",
      "distance 1.5 3.0",     "brownout 1.2 0.05 b"};
  const std::vector<std::string> pool = {
      "0",    "1e-300", "0.5",    "7",     "-0",   "-1",
      "-45",  "-1e300", "1e300",  "1e308", "4000", "1e999",
      "nan",  "inf",    "x",      "1e",    "0x10", "a",
      "both", "@0",     "@2",     "@-1",   "@",    "@x",
      "@99999999999",   "#",      "shadowing"};
  const int views[] = {faults::kNodeBroadcast, 0, 1, 2, 7};
  util::Rng rng(0xFA17);
  int accepted = 0;
  for (int trial = 0; trial < 4'000; ++trial) {
    std::string script;
    const auto lines = 1 + rng.uniform_int(0, 2);
    for (std::uint64_t l = 0; l < lines; ++l) {
      std::vector<std::string> tokens;
      std::istringstream words(seeds[rng.uniform_int(0, seeds.size() - 1)]);
      for (std::string w; words >> w;) tokens.push_back(w);
      const auto mutations = rng.uniform_int(0, 2);
      for (std::uint64_t m = 0; m < mutations; ++m) {
        const auto at = rng.uniform_int(0, tokens.size() - 1);
        const std::string& token = pool[rng.uniform_int(0, pool.size() - 1)];
        switch (rng.uniform_int(0, 4)) {
          case 0:
            tokens[at] = token;
            break;
          case 1:
            tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                          token);
            break;
          case 2:
            tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 3:
            tokens.push_back(token);
            break;
          default:
            tokens.push_back("@" + std::to_string(rng.uniform_int(0, 3)));
        }
        if (tokens.empty()) tokens.push_back(token);
      }
      for (const auto& token : tokens) script += token + ' ';
      script += '\n';
    }
    SCOPED_TRACE(script);
    std::istringstream in(script);
    std::string error;
    std::optional<faults::FaultTimeline> timeline;
    ASSERT_NO_THROW(timeline = faults::FaultTimeline::parse(in, &error));
    if (!timeline) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++accepted;
    const faults::ImpairmentSchedule schedule(*timeline);
    for (const auto& ev : timeline->events()) {
      for (const double t : {ev.start_s, ev.end_s()}) {
        // A window may end past DBL_MAX; no clock reaches that edge, and
        // state_at requires a finite time.
        if (!std::isfinite(t)) continue;
        for (const int node : views) {
          faults::ImpairmentState state;
          ASSERT_NO_THROW(state = node == faults::kNodeBroadcast
                                      ? schedule.state_at(t)
                                      : schedule.state_at(t, node))
              << "t=" << t << " node=" << node;
          EXPECT_FALSE(std::isnan(state.extra_loss_db))
              << "t=" << t << " node=" << node;
        }
      }
    }
  }
  // The mutations must leave plenty of timelines to query.
  EXPECT_GT(accepted, 1'000);
}

}  // namespace
}  // namespace braidio
