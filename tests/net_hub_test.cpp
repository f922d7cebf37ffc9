// Experiment E3's carrier hub (DESIGN.md §16) on the network
// simulator's star under --mac=tdma: one 99.5 Wh hub holds the carrier
// and assigns the slots, and 0.5 Wh braidio tags reflect it. The star
// is the one hub engine; the cases keep the names they had when
// core::CarrierHub modelled the hub on its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "energy/ledger.hpp"
#include "net/network_sim.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "util/units.hpp"

namespace braidio::net {
namespace {

/// The bench_ext_hub star: `tags` braidio tags spread over `extent_m`
/// around the hub, each with `frames` 24 B frames queued at t = 0.
NetConfig hub_star(std::size_t tags, double extent_m, std::uint32_t frames) {
  NetConfig config;
  config.backend = &backends::braidio_backend();
  config.mac = MacKind::Tdma;
  config.topology.nodes = tags;
  config.topology.extent_m = extent_m;
  config.packets_per_node = frames;
  config.kick_spread_s = 0.0;
  return config;
}

/// Tag i's reflection joules: its data-plane spend on a backscatter
/// uplink, without the one Table 5 switch-in that dominates its total.
double reflect_joules(const NetworkSimulator& sim, std::uint32_t i) {
  return sim.node(i).radio().ledger().joules(
      energy::EnergyCategory::BackscatterTx);
}

sim::faults::ImpairmentSchedule parse_faults(const char* text) {
  std::istringstream script(text);
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  EXPECT_TRUE(timeline.has_value()) << error;
  return sim::faults::ImpairmentSchedule(
      timeline.value_or(sim::faults::FaultTimeline{}));
}

TEST(CarrierHub, ServesAllNodes) {
  // Three tags at 0.82, 1.41 and 1.83 m, 160 frames each.
  NetworkSimulator sim(hub_star(3, 2.0, 160));
  const NetStats stats = sim.run();
  ASSERT_EQ(sim.node_count(), 4u);
  for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
    const NodeStats& tag = sim.node(i).stats();
    EXPECT_EQ(tag.generated, 160u) << i;
    EXPECT_GT(tag.delivered, tag.generated * 9 / 10) << i;
    EXPECT_GT(stats.node_joules[i], 0.0) << i;
  }
  EXPECT_GT(stats.hub_joules, 0.0);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

TEST(CarrierHub, PoorNodesRideTheHubCarrier) {
  // With a 99.5 Wh hub and 0.5 Wh tags, every uplink inside
  // backscatter's reach is planned as backscatter, out to 1.83 m: the
  // tag reflects, the hub pays for the carrier.
  NetworkSimulator sim(hub_star(3, 2.0, 40));
  sim.run();
  for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
    const auto point = sim.link_point(i);
    ASSERT_TRUE(point.has_value()) << i;
    EXPECT_EQ(point->mode, hal::LinkMode::Backscatter) << i;
    EXPECT_GT(reflect_joules(sim, i), 0.0) << i;
  }
}

TEST(CarrierHub, NodeEnergyOrdersOfMagnitudeBelowHub) {
  // One tag at 0.57 m, 400 frames. Tag-side reflection vs the hub's
  // carrier joules: the whole point of offload. The tag's ledger total
  // is mostly its one switch-in, so the total ratio would only measure
  // the run's length.
  NetworkSimulator sim(hub_star(1, 0.8, 400));
  const NetStats stats = sim.run();
  ASSERT_EQ(sim.node_count(), 2u);
  EXPECT_GT(reflect_joules(sim, 1), 0.0);
  EXPECT_LT(reflect_joules(sim, 1), stats.hub_joules / 100.0);
}

TEST(CarrierHub, HubEnergyPerBitAmortizesAcrossNodes) {
  // One tag vs four within 0.8 m, 320 frames each: per delivered bit
  // the hub pays about the same, so total service scales with the tag
  // count at constant hub J/bit (the amortization claim). Each tag's
  // reflection stays two orders of magnitude below the hub's spend.
  const auto run = [](std::size_t tags) {
    NetworkSimulator sim(hub_star(tags, 0.8, 320));
    const NetStats stats = sim.run();
    for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
      EXPECT_LT(reflect_joules(sim, i), stats.hub_joules / 100.0) << i;
    }
    return stats;
  };
  const NetStats one = run(1);
  const NetStats four = run(4);
  const auto hub_per_bit = [](const NetStats& stats) {
    return stats.hub_joules / stats.delivered_payload_bits;
  };
  EXPECT_NEAR(hub_per_bit(four) / hub_per_bit(one), 1.0, 0.2);
  EXPECT_NEAR(static_cast<double>(four.delivered) /
                  static_cast<double>(one.delivered),
              4.0, 0.3);
}

TEST(CarrierHub, ShadowedNodeDeliversLess) {
  // A run-long 14 dB blockage on tag 1 (0.40 m) and none on tag 2
  // (0.69 m), 160 frames each: the nearer but shadowed tag keeps its
  // slots, yet fewer of its frames get through, and each one it loses
  // runs out the ARQ budget.
  const auto schedule = parse_faults("shadowing 0 1e6 14 @1\n");
  NetConfig config = hub_star(2, 0.8, 160);
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  const NodeStats& shadowed = sim.node(1).stats();
  const NodeStats& clear = sim.node(2).stats();
  EXPECT_GT(clear.delivered, shadowed.delivered);
  EXPECT_EQ(clear.delivered, 160u);
  EXPECT_EQ(stats.arq_drops, 160u - shadowed.delivered);
}

TEST(CarrierHub, TinyNodeDiesAndOthersContinue) {
  // 9e-8 Wh = 0.32 mJ a tag: the backscatter switch-in (0.309 mJ,
  // Table 5) plus enough reflection for a clear tag's 400 frames. Every
  // tag on the star carries the same battery, so a 14 dB blockage on
  // tag 1 makes it the one that runs dry: its retries spend what its
  // clear peer's first tries do not.
  const auto schedule = parse_faults("shadowing 0 1e6 14 @1\n");
  NetConfig config = hub_star(2, 0.8, 400);
  config.tag_battery_wh = 9e-8;
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_GT(sim.node(1).stats().delivered, 0u);    // it did participate...
  EXPECT_LT(sim.node(1).stats().delivered, 400u);  // ...and dropped out early
  EXPECT_FALSE(sim.node(1).alive());
  EXPECT_TRUE(sim.node(2).alive());
  EXPECT_EQ(sim.node(2).stats().delivered, 400u);  // the other is unaffected
  EXPECT_EQ(stats.battery_deaths, 1u);
  EXPECT_EQ(stats.mac.slots_reclaimed, 1u);
}

TEST(CarrierHub, DrainedHubEndsTheRunMidRound) {
  // 1e-6 Wh = 3.6 mJ: the hub empties after about 19 rounds of three
  // slots. The tags keep paying for their own futile tries (the
  // dead-destination rules), but nothing more is delivered, however
  // many frames are asked.
  const auto run = [](std::uint32_t frames) {
    NetConfig config = hub_star(3, 0.8, frames);
    config.hub_battery_wh = 1e-6;
    NetworkSimulator sim(config);
    sim.run();
    EXPECT_FALSE(sim.node(0).alive());
    EXPECT_NEAR(sim.node(0).radio().ledger().total_joules(),
                util::wh_to_joules(config.hub_battery_wh), 1e-12);
    std::vector<std::uint64_t> delivered;
    for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
      delivered.push_back(sim.node(i).stats().delivered);
    }
    return delivered;
  };
  const std::vector<std::uint64_t> short_run = run(100);
  const std::vector<std::uint64_t> long_run = run(1000);
  EXPECT_EQ(short_run, long_run);
  ASSERT_EQ(short_run.size(), 3u);
  // The hub died mid-round: tags 1 and 2 were served in the last round
  // and tag 3 was not, so it stops one frame behind them.
  EXPECT_GT(short_run[2], 0u);
  EXPECT_EQ(short_run[0], short_run[1]);
  EXPECT_EQ(short_run[0], short_run[2] + 1);
}

}  // namespace
}  // namespace braidio::net
