// MAC policy layer: the pluggable channel-access interface, the
// scheduled-slot (TDMA) hub policy, the charged-CCA accounting, and the
// dead-destination rules (DESIGN.md §16).
#include "net/mac_policy.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "backends/backends.hpp"
#include "energy/ledger.hpp"
#include "net/network_sim.hpp"
#include "net/tdma.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"

namespace braidio::net {
namespace {

const hal::RadioBackend& backend(const char* name) {
  backends::register_all();
  return hal::BackendRegistry::instance().get(name);
}

/// A tag's non-idle spend: everything but the sleep floor, i.e. what the
/// MAC actually made the radio do.
double active_joules(const hal::IRadio& radio) {
  return radio.ledger().total_joules() -
         radio.ledger().joules(energy::EnergyCategory::Idle);
}

TEST(MacPolicy, ParseRoundTrips) {
  EXPECT_EQ(parse_mac("csma"), MacKind::Csma);
  EXPECT_EQ(parse_mac("tdma"), MacKind::Tdma);
  EXPECT_THROW(parse_mac("aloha"), std::invalid_argument);
  EXPECT_STREQ(to_string(MacKind::Csma), "csma");
  EXPECT_STREQ(to_string(MacKind::Tdma), "tdma");
}

TEST(ScheduledSlotMac, DeliversOnAQuietStar) {
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 4;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 2;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.generated, 8u);
  EXPECT_EQ(stats.delivered, 8u);
  EXPECT_EQ(stats.csma_failures, 0u);  // slots are granted, never contended
  EXPECT_EQ(stats.mac.registrations, 4u);
  EXPECT_GT(stats.mac.rounds, 0u);
  EXPECT_EQ(stats.mac.slots_reclaimed, 0u);
  const auto& policy = dynamic_cast<const ScheduledSlotMac&>(sim.mac_policy());
  for (std::uint32_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(policy.is_registered(i));
  }
}

TEST(ScheduledSlotMac, SweepsAreByteIdenticalSerialVsParallel) {
  const auto run_with_threads = [&](unsigned threads) {
    sim::Scenario scenario(
        "tdma_determinism", {sim::Axis::indexed("replica", 6)},
        {"events", "delivered", "rounds", "joules"},
        [&](sim::SweepPoint& p) {
          NetConfig config;
          config.backend = &backend(backends::kBraidio);
          config.mac = MacKind::Tdma;
          config.topology.kind = TopologyKind::RandomGeometric;
          config.topology.nodes = 48;
          config.topology.extent_m = 1.5;
          config.topology.link_range_m = 0.8;
          config.packets_per_node = 2;
          config.seed = p.seed();
          NetworkSimulator sim(config);
          const NetStats stats = sim.run();
          std::ostringstream joules;
          joules.precision(17);
          joules << stats.total_joules;
          sim::RunRecord record;
          record.cells = {std::to_string(stats.events),
                          std::to_string(stats.delivered),
                          std::to_string(stats.mac.rounds), joules.str()};
          return record;
        });
    sim::SweepOptions options;
    options.threads = threads;
    return sim::SweepRunner(options).run(scenario).to_csv();
  };
  const std::string serial = run_with_threads(1);
  const std::string parallel = run_with_threads(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ScheduledSlotMac, ReclaimsSlotsWhenNodesDie) {
  // Tags on a starvation battery: they register, transmit a while, then
  // die mid-backlog. The planner must drop dead members (reclaiming
  // their slots), keep serving the rest, and terminate. The ble-active
  // backend makes each transmission cost real milliwatt-scale energy, so
  // the deaths land mid-run, inside assigned slots.
  NetConfig config;
  config.backend = &backend(backends::kBleActive);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 8;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 50;
  config.tag_battery_wh = 3e-7;  // survives registration, not the backlog
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_GT(stats.battery_deaths, 0u);
  EXPECT_GT(stats.mac.slots_reclaimed, 0u);
  EXPECT_LT(stats.delivered, stats.generated);
  // Conservation stays exact through the deaths: each ledger covers
  // exactly what its battery gave up.
  for (std::uint32_t i = 0; i < sim.node_count(); ++i) {
    const hal::IRadio& radio = sim.node(i).radio();
    const double drained = radio.battery().capacity_joules() -
                           radio.battery().remaining_joules();
    EXPECT_NEAR(radio.ledger().total_joules(), drained,
                1e-9 * radio.battery().capacity_joules() + 1e-15);
  }
}

TEST(ScheduledSlotMac, RegistrationRidesOutTargetedDropout) {
  // Tag 1 is under a targeted carrier dropout for the first 0.3 s: its
  // registration exchanges fail and back off (50 ms), then succeed
  // once the fault lifts — after which it delivers everything.
  std::istringstream script("dropout 0 0.3 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 2;
  config.topology.extent_m = 0.3;
  config.packets_per_node = 2;
  config.kick_spread_s = 0.01;  // both tags ask well inside the dropout
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.mac.registrations, 2u);
  EXPECT_EQ(sim.node(1).stats().delivered, 2u);
  EXPECT_EQ(sim.node(2).stats().delivered, 2u);
  EXPECT_GT(stats.elapsed_s, 0.3);  // the run really waited the fault out
}

TEST(ScheduledSlotMac, PermanentDropoutIsBoundedAndIsolated) {
  // A dropout that never lifts: tag 1 burns its registration budget and
  // is given up on — the run terminates, tag 2 is untouched, and both of
  // tag 1's frames (one in flight, one queued) end as access drops.
  std::istringstream script("dropout 0 1e6 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.mac = MacKind::Tdma;
  config.topology.nodes = 2;
  config.topology.extent_m = 0.3;
  config.packets_per_node = 2;
  config.kick_spread_s = 0.01;
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.mac.registrations, 1u);
  EXPECT_EQ(sim.node(1).stats().delivered, 0u);
  EXPECT_EQ(sim.node(2).stats().delivered, 2u);
  EXPECT_EQ(stats.csma_failures, 2u);
  EXPECT_EQ(sim.node(1).backlog(), 0u);
  EXPECT_EQ(stats.generated,
            stats.delivered + stats.csma_failures + stats.arq_drops);
  const auto& policy = dynamic_cast<const ScheduledSlotMac&>(sim.mac_policy());
  EXPECT_FALSE(policy.is_registered(1));
  EXPECT_TRUE(policy.is_registered(2));
}

TEST(ScheduledSlotMac, CcaDeafReaderPassiveDeliversDenseStar) {
  // The collapse scenario, fixed: pure-backscatter tags cannot carrier
  // sense, so a dense uncoordinated population collides itself to death
  // — but under hub-assigned slots the same hardware delivers >90%.
  NetConfig tdma;
  tdma.backend = &backend(backends::kReaderPassive);
  tdma.mac = MacKind::Tdma;
  tdma.topology.nodes = 1000;
  tdma.topology.extent_m = 2.0;
  tdma.packets_per_node = 2;
  NetworkSimulator tdma_sim(tdma);
  const NetStats scheduled = tdma_sim.run();
  ASSERT_GT(scheduled.generated, 0u);
  const double tdma_pct = 100.0 * static_cast<double>(scheduled.delivered) /
                          static_cast<double>(scheduled.generated);
  EXPECT_GT(tdma_pct, 90.0);

  NetConfig csma = tdma;
  csma.mac = MacKind::Csma;
  NetworkSimulator csma_sim(csma);
  const NetStats contended = csma_sim.run();
  const double csma_pct = 100.0 * static_cast<double>(contended.delivered) /
                          static_cast<double>(contended.generated);
  EXPECT_LT(csma_pct, tdma_pct);  // the collapse the slots fix
}

TEST(MacPolicy, CsmaListeningCostsMoreThanTdmaCoordination) {
  // Satellite pin for the charged-CCA bugfix: for equal delivered bytes
  // on a quiet star, a CSMA tag's non-idle ledger strictly exceeds a
  // TDMA tag's — the CSMA tag pays a listen window per attempt, the TDMA
  // tag pays only one cheap registration exchange.
  const auto run = [&](MacKind mac) {
    NetConfig config;
    config.backend = &backend(backends::kBraidio);
    config.mac = mac;
    config.topology.nodes = 4;
    config.topology.extent_m = 0.2;
    config.packets_per_node = 2;
    NetworkSimulator sim(config);
    const NetStats stats = sim.run();
    EXPECT_EQ(stats.delivered, stats.generated);
    double tags = 0.0;
    for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
      tags += active_joules(sim.node(i).radio());
    }
    return tags;
  };
  const double csma_joules = run(MacKind::Csma);
  const double tdma_joules = run(MacKind::Tdma);
  EXPECT_GT(csma_joules, tdma_joules);
}

TEST(NetworkSimulator, DeadDestinationAccruesNoCharge) {
  // The hub dies early on a starvation battery, under either MAC. Tags
  // must keep paying for their own (futile) transmissions while the dead
  // hub's ledger stays pinned at exactly its capacity — no post-death
  // spend hiding in the drained battery's clamp — and the run still
  // terminates.
  for (const MacKind mac : {MacKind::Csma, MacKind::Tdma}) {
    SCOPED_TRACE(to_string(mac));
    NetConfig config;
    config.backend = &backend(backends::kBraidio);
    config.mac = mac;
    config.topology.nodes = 8;
    config.topology.extent_m = 0.4;
    config.packets_per_node = 4;
    config.hub_battery_wh = 1e-7;  // dies inside the first receive windows
    NetworkSimulator sim(config);
    const NetStats stats = sim.run();
    EXPECT_GT(stats.battery_deaths, 0u);
    EXPECT_FALSE(sim.node(0).alive());
    EXPECT_LT(stats.delivered, stats.generated);
    EXPECT_GT(stats.tx_attempts, stats.delivered);  // tags kept trying

    const hal::IRadio& hub = sim.node(0).radio();
    EXPECT_EQ(hub.battery().remaining_joules(), 0.0);
    // Ledger == capacity exactly: everything the battery held was posted,
    // and nothing was posted after death.
    EXPECT_NEAR(hub.ledger().total_joules(), hub.battery().capacity_joules(),
                1e-12 * hub.battery().capacity_joules());
    // The tags' own ledgers still conserve exactly.
    for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
      const hal::IRadio& radio = sim.node(i).radio();
      const double drained = radio.battery().capacity_joules() -
                             radio.battery().remaining_joules();
      EXPECT_NEAR(radio.ledger().total_joules(), drained,
                  1e-9 * radio.battery().capacity_joules());
    }
  }
}

}  // namespace
}  // namespace braidio::net
