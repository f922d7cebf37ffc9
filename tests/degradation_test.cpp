// Graceful-degradation suite: the protocol must degrade monotonically with
// fault severity, never livelock, and faulted sweeps must stay
// byte-identical between serial and parallel execution (the PR 2 guarantee
// extends to fault schedules).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "hal/radio.hpp"
#include "mac/arq.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/units.hpp"

namespace braidio {
namespace {

struct Rig {
  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes{backend};
  hal::StandardRadio a{"phone", 1, util::WattHours(6.55), backend.caps()};
  hal::StandardRadio b{"watch", 2, util::WattHours(0.78), backend.caps()};
};

core::BraidedLinkStats run_faulted(
    const sim::faults::ImpairmentSchedule& schedule, std::uint64_t packets,
    std::uint64_t seed = 7) {
  Rig rig;
  core::BraidedLinkConfig cfg;
  cfg.distance_m = 0.8;
  cfg.packets_per_slot = 8;
  cfg.seed = seed;
  cfg.impairments = &schedule;
  core::BraidedLink link(rig.a, rig.b, rig.regimes, cfg);
  return link.run(packets);
}

TEST(Degradation, DeliveryRatioNonIncreasingInShadowingSeverity) {
  // One long shadowing window covering most of the run; severity is its
  // depth. Monotone by construction of the BER curve, so only a small
  // statistical slack is allowed.
  std::vector<double> severities_db = {0.0, 10.0, 20.0, 60.0};
  std::vector<double> ratios;
  for (const double db : severities_db) {
    sim::faults::FaultTimeline timeline;
    if (db > 0.0) {
      timeline = sim::faults::FaultTimeline{
          {{sim::faults::FaultKind::Shadowing, 0.0, 1e6, db, 0.0,
            sim::faults::kTargetBoth}}};
    }
    const sim::faults::ImpairmentSchedule schedule{timeline};
    ratios.push_back(run_faulted(schedule, 384).delivery_ratio());
  }
  EXPECT_GT(ratios.front(), 0.95);
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_LE(ratios[i], ratios[i - 1] + 0.02)
        << severities_db[i] << " dB vs " << severities_db[i - 1] << " dB";
  }
  EXPECT_LT(ratios.back(), 0.05);  // 60 dB of shadowing kills the link
}

TEST(Degradation, DeliveredBitsNonIncreasingInDropoutBurstCount) {
  std::vector<unsigned> burst_counts = {0, 2, 8};
  std::vector<double> delivered_bits;
  for (const unsigned count : burst_counts) {
    sim::faults::FaultTimeline timeline;
    if (count > 0) {
      // Evenly spaced total outages, each 50 ms, starting early.
      timeline = sim::faults::FaultTimeline::periodic_bursts(
          sim::faults::FaultKind::CarrierDropout, count, 0.01, 0.1, 0.05,
          0.0);
    }
    const sim::faults::ImpairmentSchedule schedule{timeline};
    delivered_bits.push_back(
        run_faulted(schedule, 256).payload_bits_delivered);
  }
  for (std::size_t i = 1; i < delivered_bits.size(); ++i) {
    EXPECT_LE(delivered_bits[i], delivered_bits[i - 1])
        << burst_counts[i] << " bursts vs " << burst_counts[i - 1];
  }
}

TEST(Degradation, DeliveredBitsNonIncreasingInBrownoutDrain) {
  // Brownouts steal joules from the small device early in the run; a
  // fixed-size transfer must deliver no more under a harsher brownout.
  std::vector<double> drains_j = {0.0, 4e-4, 1.2e-3};
  std::vector<double> delivered_bits;
  for (const double joules : drains_j) {
    sim::faults::FaultTimeline timeline;
    if (joules > 0.0) {
      timeline = sim::faults::FaultTimeline{
          {{sim::faults::FaultKind::Brownout, 1e-4, 0.0, joules, 0.0,
            sim::faults::kTargetB}}};
    }
    const sim::faults::ImpairmentSchedule schedule{timeline};
    Rig rig;
    core::BraidedLinkConfig cfg;
    cfg.distance_m = 0.8;
    cfg.seed = 7;
    cfg.impairments = &schedule;
    // Shrink the watch battery so the brownout is material and the
    // run-to-death stays fast.
    hal::StandardRadio small("watch", 2, util::WattHours(5e-7),
                             rig.backend.caps());  // 1.8 mJ
    core::BraidedLink link(rig.a, small, rig.regimes, cfg);
    delivered_bits.push_back(link.run(1u << 20).payload_bits_delivered);
  }
  ASSERT_GT(delivered_bits.front(), 0.0);
  for (std::size_t i = 1; i < delivered_bits.size(); ++i) {
    EXPECT_LE(delivered_bits[i], delivered_bits[i - 1])
        << drains_j[i] << " J vs " << drains_j[i - 1] << " J";
  }
}

TEST(Degradation, NoLivelockAtTotalOutage) {
  // 100% loss for the whole run: every packet must exhaust its retry
  // budget and terminate — bounded retransmissions, no infinite loop.
  const sim::faults::ImpairmentSchedule schedule{sim::faults::FaultTimeline{
      {{sim::faults::FaultKind::CarrierDropout, 0.0, 1e9, 0.0, 0.0,
        sim::faults::kTargetBoth}}}};
  const std::uint64_t packets = 16;
  const auto stats = run_faulted(schedule, packets);
  EXPECT_EQ(stats.data_packets_delivered, 0u);
  EXPECT_EQ(stats.data_packets_offered + 0u, packets);
  EXPECT_EQ(stats.data_packets_dropped, packets);
  // Stop-and-wait budget: exactly kMaxRetransmissions (7) per packet, and
  // the refused final attempt must NOT be counted (the old off-by-one).
  EXPECT_EQ(stats.retransmissions, packets * mac::kMaxRetransmissions);
  EXPECT_GT(stats.elapsed_s, 0.0);
}

TEST(Degradation, FaultActivationsAreCountedOnce) {
  const auto timeline = sim::faults::FaultTimeline::periodic_bursts(
      sim::faults::FaultKind::Shadowing, 5, 1e-3, 2e-3, 1e-3, 30.0);
  const sim::faults::ImpairmentSchedule schedule{timeline};
  const auto stats = run_faulted(schedule, 512);
  EXPECT_EQ(stats.fault_activations, 5u);
}

TEST(Degradation, FaultSweepSerialAndParallelAreByteIdentical) {
  // A fault-severity x seed sweep evaluated through the PR 2 engine: the
  // ResultTable JSON must not depend on the thread count.
  const std::vector<double> shadow_db = {0.0, 15.0, 40.0};
  sim::Scenario scenario(
      "degradation-sweep",
      {sim::Axis::numeric("shadow_db", shadow_db, 0),
       sim::Axis::indexed("replica", 2)},
      {"delivery", "retx", "faults"},
      [&](sim::SweepPoint& point) {
        const double db = shadow_db[point.axis_index(0)];
        sim::faults::FaultTimeline timeline;
        if (db > 0.0) {
          timeline = sim::faults::FaultTimeline::periodic_bursts(
              sim::faults::FaultKind::Shadowing, 3, 0.01, 0.05, 0.03, db);
        }
        const sim::faults::ImpairmentSchedule schedule{timeline};
        const auto stats = run_faulted(schedule, 96, point.seed());
        char delivery[32];
        std::snprintf(delivery, sizeof delivery, "%.6f",
                      stats.delivery_ratio());
        return sim::RunRecord{
            {delivery, std::to_string(stats.retransmissions),
             std::to_string(stats.fault_activations)},
            {stats.delivery_ratio(),
             static_cast<double>(stats.retransmissions)}};
      });
  const auto serial =
      sim::SweepRunner({.threads = 1, .seed = 42}).run(scenario);
  const auto parallel =
      sim::SweepRunner({.threads = 4, .seed = 42}).run(scenario);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

}  // namespace
}  // namespace braidio
