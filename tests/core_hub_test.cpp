#include "core/carrier_hub.hpp"

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "util/units.hpp"

namespace braidio::core {
namespace {

std::vector<HubNodeConfig> three_sensors() {
  return {{"door", 0.5, 0.6, 0.0, 24},
          {"window", 0.5, 1.2, 0.0, 24},
          {"motion", 0.5, 2.0, 0.0, 24}};
}

TEST(CarrierHub, ServesAllNodes) {
  const auto& backend = backends::braidio_backend();
  CarrierHub hub(backend, {}, three_sensors());
  const auto stats = hub.run(20);
  ASSERT_EQ(stats.nodes.size(), 3u);
  for (const auto& n : stats.nodes) {
    EXPECT_EQ(n.offered, 20u * 8u) << n.name;
    EXPECT_GT(n.delivered, n.offered * 9 / 10) << n.name;
    EXPECT_GT(n.node_joules, 0.0) << n.name;
  }
  EXPECT_GT(stats.hub_joules, 0.0);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

TEST(CarrierHub, PoorNodesRideTheHubCarrier) {
  // With a 99.5 Wh hub and 0.5 Wh nodes, every in-Regime-A node's plan
  // must be backscatter-dominant: the node reflects, the hub pays.
  const auto& backend = backends::braidio_backend();
  CarrierHub hub(backend, {}, three_sensors());
  hub.run(5);
  for (const auto& plan : hub.plans()) {
    double backscatter_fraction = 0.0;
    for (const auto& e : plan.entries) {
      if (e.candidate.mode == phy::LinkMode::Backscatter) {
        backscatter_fraction += e.fraction;
      }
    }
    EXPECT_GT(backscatter_fraction, 0.5) << plan.summary();
  }
}

TEST(CarrierHub, NodeEnergyOrdersOfMagnitudeBelowHub) {
  const auto& backend = backends::braidio_backend();
  CarrierHub hub(backend, {}, {{"near", 0.5, 0.5, 0.0, 24}});
  const auto stats = hub.run(50);
  ASSERT_EQ(stats.nodes.size(), 1u);
  // Tag-side joules vs hub carrier joules: the whole point of offload.
  EXPECT_LT(stats.nodes[0].node_joules, stats.hub_joules / 100.0);
}

TEST(CarrierHub, HubEnergyPerBitAmortizesAcrossNodes) {
  const auto& backend = backends::braidio_backend();
  HubConfig cfg;
  // One node vs four identical nodes at the same distance: per delivered
  // bit the hub pays roughly the same, so total service scales with node
  // count at constant hub J/bit (the amortization claim).
  CarrierHub one(backend, cfg, {{"n1", 0.5, 0.8, 0.0, 24}});
  const auto s1 = one.run(40);
  CarrierHub four(backend, cfg,
                  {{"n1", 0.5, 0.8, 0.0, 24},
                   {"n2", 0.5, 0.8, 0.0, 24},
                   {"n3", 0.5, 0.8, 0.0, 24},
                   {"n4", 0.5, 0.8, 0.0, 24}});
  const auto s4 = four.run(40);
  EXPECT_NEAR(s4.hub_joules_per_bit(24) / s1.hub_joules_per_bit(24), 1.0,
              0.2);
  EXPECT_NEAR(s4.delivered_total() / s1.delivered_total(), 4.0, 0.3);
}

TEST(CarrierHub, DistantNodeFallsBackToActive) {
  const auto& backend = backends::braidio_backend();
  CarrierHub hub(backend, {}, {{"far", 0.5, 4.0, 0.0, 24}});
  hub.run(3);
  ASSERT_EQ(hub.plans().size(), 1u);
  // At 4 m only active+passive exist; sending node->hub cannot use
  // passive's cheap end (the node would hold the carrier), so the plan is
  // effectively active.
  EXPECT_NE(hub.plans()[0].summary().find("active"), std::string::npos);
}

TEST(CarrierHub, ShadowedNodeDeliversLess) {
  const auto& backend = backends::braidio_backend();
  CarrierHub hub(backend, {},
                 {{"clear", 0.5, 1.0, 0.0, 24},
                  {"shadowed", 0.5, 1.0, 14.0, 24}});
  const auto stats = hub.run(20);
  EXPECT_GT(stats.nodes[0].delivered, stats.nodes[1].delivered);
}

TEST(CarrierHub, TinyNodeDiesAndOthersContinue) {
  const auto& backend = backends::braidio_backend();
  // 9e-8 Wh = 0.32 mJ: enough for the backscatter switch-in (0.309 mJ,
  // Table 5) plus a few hundred tag-side packets, then the node dies.
  CarrierHub hub(backend, {},
                 {{"coin", 9e-8, 0.6, 0.0, 24},
                  {"normal", 0.5, 0.6, 0.0, 24}});
  const auto stats = hub.run(300);
  EXPECT_GT(stats.nodes[0].offered, 0u);       // it did participate...
  EXPECT_LT(stats.nodes[0].offered, 300u * 8u);  // ...and dropped out early
  EXPECT_EQ(stats.nodes[1].offered, 300u * 8u);  // the other is unaffected
}

TEST(CarrierHub, DrainedHubEndsTheRunMidRound) {
  const auto& backend = backends::braidio_backend();
  // 1e-8 Wh = 36 uJ: the passive-mode hub empties during round 47.
  HubConfig cfg;
  cfg.hub_battery_wh = 1e-8;
  CarrierHub short_run(backend, cfg, three_sensors());
  CarrierHub long_run(backend, cfg, three_sensors());
  const auto s = short_run.run(100);
  const auto l = long_run.run(1000);
  EXPECT_NEAR(s.hub_joules, util::wh_to_joules(cfg.hub_battery_wh), 1e-12);
  // Once the hub is empty nothing moves, however many rounds are asked.
  EXPECT_EQ(s.elapsed_s, l.elapsed_s);
  ASSERT_EQ(s.nodes.size(), 3u);
  for (std::size_t i = 0; i < s.nodes.size(); ++i) {
    EXPECT_EQ(s.nodes[i].offered, l.nodes[i].offered) << i;
    EXPECT_EQ(s.nodes[i].delivered, l.nodes[i].delivered) << i;
  }
  // The hub died inside a slot of "window", so "motion" never got that
  // round's slot: it stops one whole slot behind "door".
  const unsigned slot = kHubPacketsPerSlot;
  EXPECT_EQ(s.nodes[0].offered % slot, 0u);
  EXPECT_EQ(s.nodes[2].offered % slot, 0u);
  EXPECT_EQ(s.nodes[0].offered, s.nodes[2].offered + slot);
  EXPECT_GT(s.nodes[1].offered, s.nodes[2].offered);
  EXPECT_LT(s.nodes[1].offered, s.nodes[0].offered);
}

TEST(CarrierHub, Validation) {
  const auto& backend = backends::braidio_backend();
  EXPECT_THROW(CarrierHub(backend, {}, {}), std::invalid_argument);
  CarrierHub out_of_range(backend, {},
                          {{"moon", 0.5, 40.0, 0.0, 24}});
  EXPECT_THROW(out_of_range.run(1), std::runtime_error);
}

}  // namespace
}  // namespace braidio::core
