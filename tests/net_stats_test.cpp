// Network flight recorder (DESIGN.md §17): the per-node stats copy and
// its per-link loss view, packet-lifecycle flow tracing, the recorded
// export digests, and the serial-vs-parallel export determinism pin.
#include "net/netstats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "net/network_sim.hpp"
#include "obs/obs.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"

namespace braidio::net {
namespace {

const hal::RadioBackend& backend() {
  backends::register_all();
  return hal::BackendRegistry::instance().get(backends::kBraidio);
}

#if BRAIDIO_OBS_COMPILED

/// RAII guard: every test that touches the process-wide tracer restores
/// it (disabled, default capacity, empty) so test order never matters.
struct TracerGuard {
  ~TracerGuard() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().set_lane_capacity(std::size_t{1} << 14);
    obs::Tracer::instance().clear();
  }
};

std::uint64_t node_sum(const NetFlightRecord& record,
                       std::uint64_t NodeStats::*field) {
  std::uint64_t sum = 0;
  for (const NodeStats& node : record.nodes) sum += node.*field;
  return sum;
}

TEST(NetFlightRecorder, DisabledByDefaultAndInert) {
  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.nodes = 8;
  cfg.packets_per_node = 1;
  NetworkSimulator sim(cfg);
  sim.run();
  const NetFlightRecord& record = sim.flight_record();
  EXPECT_FALSE(record.enabled);
  EXPECT_TRUE(record.nodes.empty());
  EXPECT_TRUE(record.dst.empty());
  EXPECT_EQ(record.latency.count(), 0u);
}

TEST(NetFlightRecorder, CountersReconcileWithNetStats) {
  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.kind = TopologyKind::Grid;
  cfg.topology.nodes = 48;
  cfg.topology.extent_m = 4.0;
  cfg.packets_per_node = 2;
  cfg.flight_recorder = true;
  NetworkSimulator sim(cfg);
  const NetStats stats = sim.run();
  const NetFlightRecord& record = sim.flight_record();

  ASSERT_TRUE(record.enabled);
  ASSERT_EQ(record.nodes.size(), cfg.topology.nodes + 1);
  ASSERT_EQ(record.dst.size(), cfg.topology.nodes + 1);

  // Every resolved transmission lands in exactly one uplink outcome, and
  // every acked hop either delivered its frame or forwarded it.
  for (const NodeStats& node : record.nodes) {
    EXPECT_EQ(node.tx_attempts, node.uplink_acked + node.uplink_data_lost +
                                    node.uplink_ack_lost);
  }
  EXPECT_EQ(node_sum(record, &NodeStats::uplink_acked),
            stats.delivered + stats.forwarded);
  EXPECT_EQ(record.latency.count(), stats.delivered);
  EXPECT_EQ(record.events, stats.events);

  // Exports parse-back at the smoke level: schema line, one CSV row per
  // node plus the header.
  const std::string json = record.to_json();
  EXPECT_NE(json.find("\"schema\": \"braidio-netstats/v2\""),
            std::string::npos);
  const std::string csv = record.to_csv();
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(rows), record.nodes.size() + 1);
}

// Per-point flight-record exports are byte-identical serial vs
// parallel. Eight 128-tag replicas ≈ 1k nodes.
TEST(NetFlightRecorder, SweepExportsByteIdenticalSerialVsParallel) {
  const auto run_with_threads = [&](unsigned threads) {
    constexpr std::size_t kReplicas = 8;
    std::vector<std::string> exports(kReplicas);
    sim::Scenario scenario(
        "net_stats_determinism",
        {sim::Axis::indexed("replica", kReplicas)}, {"events"},
        [&](sim::SweepPoint& p) {
          NetConfig cfg;
          cfg.backend = &backend();
          cfg.topology.nodes = 128;  // star: same link shape per seed
          cfg.packets_per_node = 2;
          cfg.seed = p.seed();
          cfg.flight_recorder = true;
          NetworkSimulator sim(cfg);
          const NetStats stats = sim.run();
          exports[p.flat_index()] =
              sim.flight_record().to_json() + sim.flight_record().to_csv();
          sim::RunRecord record;
          record.cells = {std::to_string(stats.events)};
          return record;
        });
    sim::SweepOptions options;
    options.threads = threads;
    sim::SweepRunner(options).run(scenario);
    std::string all;
    for (const auto& text : exports) all += text;
    return all;
  };
  const std::string serial = run_with_threads(1);
  const std::string parallel = run_with_threads(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

// ISSUE 10 pin: Chrome flow-event export parses back — every packet id
// opens with "s", advances with "t", closes with "f"/"bp":"e", and a
// multi-hop grid shows at least one relay chain.
TEST(NetFlightRecorder, ChromeFlowEventsParseBack) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 16);
  tracer.clear();
  tracer.set_enabled(true);

  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.kind = TopologyKind::Grid;
  cfg.topology.nodes = 48;
  cfg.topology.extent_m = 4.0;
  cfg.packets_per_node = 2;
  NetworkSimulator sim(cfg);
  const NetStats stats = sim.run();
  ASSERT_GT(stats.forwarded, 0u) << "grid run should relay";

  const auto snapshot = tracer.snapshot();
  tracer.set_enabled(false);

  std::size_t begins = 0, steps = 0, ends = 0, relays = 0;
  for (const auto& lane : snapshot.lanes) {
    for (const auto& ev : lane.events) {
      if (!obs::is_flow_event(ev.type)) continue;
      switch (ev.type) {
        case obs::EventType::PacketFlowBegin: ++begins; break;
        case obs::EventType::PacketFlowStep:
          ++steps;
          if (std::strncmp(ev.label, "relay", 5) == 0) ++relays;
          break;
        case obs::EventType::PacketFlowEnd: ++ends; break;
        default: break;
      }
    }
  }
  EXPECT_EQ(begins, stats.generated);
  EXPECT_EQ(ends, stats.delivered + stats.arq_drops + stats.csma_failures);
  EXPECT_GE(relays, 1u) << "need >= 1 multi-hop chain in the trace";
  EXPECT_GT(steps, begins);

  const std::string json = obs::chrome_trace_json(snapshot);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"packet\""), std::string::npos);
  // Flow arrows carry the packet id that threads the chain together.
  EXPECT_NE(json.find("\"id\": 1"), std::string::npos);
}

// ISSUE 10 pin: ring-overflow drop accounting under a dense 10k-node
// run with a deliberately tiny ring: recorded = kept + dropped.
TEST(NetFlightRecorder, RingOverflowDropAccountingAt10kNodes) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(256);  // tiny: the dense run must wrap
  tracer.clear();
  tracer.set_enabled(true);

  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.nodes = 10000;
  cfg.packets_per_node = 1;
  cfg.flight_recorder = true;
  NetworkSimulator sim(cfg);
  const NetStats stats = sim.run();
  EXPECT_GT(stats.events, 10000u);

  const auto snapshot = tracer.snapshot();
  tracer.set_enabled(false);
  EXPECT_GT(snapshot.total_dropped(), 0u);
  std::uint64_t kept = 0, recorded = 0, dropped = 0;
  for (const auto& lane : snapshot.lanes) {
    kept += lane.events.size();
    recorded += lane.recorded;
    dropped += lane.dropped;
  }
  EXPECT_EQ(recorded, kept + dropped);

  // The recorder is ring-independent: nothing the ring dropped is
  // missing from its latency histogram or its event count.
  const NetFlightRecord& record = sim.flight_record();
  EXPECT_EQ(record.latency.count(), stats.delivered);
  EXPECT_EQ(record.events, stats.events);
}

TEST(NetFlightRecorder, FaultActiveEventNamesTargetedNode) {
  TracerGuard guard;
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 12);
  tracer.clear();
  tracer.set_enabled(true);

  std::istringstream script("dropout 0 1e6 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.nodes = 2;
  cfg.topology.extent_m = 0.3;
  cfg.packets_per_node = 1;
  cfg.impairments = &schedule;
  NetworkSimulator sim(cfg);
  sim.run();

  const auto snapshot = tracer.snapshot();
  tracer.set_enabled(false);
  bool found = false;
  for (const auto& lane : snapshot.lanes) {
    for (const auto& ev : lane.events) {
      if (ev.type == obs::EventType::FaultActive &&
          std::strcmp(ev.label, "dropout@1") == 0) {
        found = true;
        EXPECT_EQ(ev.value, 1.0);  // value carries the target node
      }
    }
  }
  EXPECT_TRUE(found) << "expected a FaultActive event labeled dropout@1";
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// The export is a byte-for-byte contract. These digests of to_json() +
// to_csv() are those of `braidio_cli net --topology=grid --nodes=96
// --mac=<csma|tdma> --faults=F --net-stats-out=...`, with F holding the
// two fault lines below: a change to what the record holds or how it
// renders must re-record them and say why. Last re-recorded when
// util::Rng moved from mt19937_64 to xoshiro256** (every stream redrawn).
TEST(NetFlightRecorder, ExportsMatchRecordedDigests) {
  std::istringstream script("dropout 0 0.3 @1\nshadowing 0.2 0.6 12\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule faults(*timeline);

  struct Cell {
    MacKind mac;
    std::uint64_t digest;
  };
  const Cell recorded[] = {{MacKind::Csma, 0xafda84ede0edd311ull},
                           {MacKind::Tdma, 0x3122455fd568d196ull}};
  for (const Cell& cell : recorded) {
    NetConfig cfg;
    cfg.backend = &backend();
    cfg.topology.kind = TopologyKind::Grid;
    cfg.topology.nodes = 96;
    cfg.mac = cell.mac;
    cfg.impairments = &faults;
    cfg.flight_recorder = true;
    NetworkSimulator sim(cfg);
    sim.run();
    const NetFlightRecord& record = sim.flight_record();
    const std::uint64_t digest = fnv1a(record.to_json() + record.to_csv());
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, cell.digest)
        << "netstats export changed under " << to_string(cell.mac) << ": "
        << hex;
  }
}

#else  // !BRAIDIO_OBS_COMPILED

TEST(NetFlightRecorder, ArmIsNoOpWhenObsCompiledOut) {
  NetConfig cfg;
  cfg.backend = &backend();
  cfg.topology.nodes = 8;
  cfg.packets_per_node = 1;
  cfg.flight_recorder = true;  // requested but compiled out
  NetworkSimulator sim(cfg);
  sim.run();
  EXPECT_FALSE(sim.flight_record().enabled);
  EXPECT_TRUE(sim.flight_record().nodes.empty());
}

#endif  // BRAIDIO_OBS_COMPILED

}  // namespace
}  // namespace braidio::net
