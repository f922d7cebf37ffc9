// Many-node network simulator: topology builders (routes against the
// quadratic BFS), the shared medium, node bookkeeping, energy
// conservation at 1k nodes, sweep determinism, per-node fault targeting,
// the schedule and each backend's uplink choices pinned to recorded
// digests, outcome distributions pinned across a generator change, and
// the static-link BER reuse (DESIGN.md §15).
#include "net/network_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "core/regimes.hpp"
#include "hal/backend.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio::net {
namespace {

const hal::RadioBackend& backend(const char* name) {
  backends::register_all();
  return hal::BackendRegistry::instance().get(name);
}

TEST(Topology, ParseRoundTrips) {
  EXPECT_EQ(parse_topology("star"), TopologyKind::Star);
  EXPECT_EQ(parse_topology("grid"), TopologyKind::Grid);
  EXPECT_EQ(parse_topology("rgg"), TopologyKind::RandomGeometric);
  EXPECT_EQ(parse_topology("random-geometric"),
            TopologyKind::RandomGeometric);
  EXPECT_FALSE(parse_topology("ring").has_value());
  EXPECT_STREQ(to_string(TopologyKind::Star), "star");
}

TEST(Topology, StarPutsEveryTagOneHopFromTheHub) {
  TopologyConfig config;
  config.nodes = 40;
  config.extent_m = 2.0;
  util::Rng rng(1);
  const Topology topo = build_topology(config, rng);
  ASSERT_EQ(topo.size(), 41u);
  EXPECT_EQ(topo.reachable(), 41u);
  EXPECT_EQ(topo.max_hops(), 1u);
  for (std::size_t i = 1; i < topo.size(); ++i) {
    EXPECT_EQ(topo.next_hop[i], 0u);
    EXPECT_LE(distance_m(topo.positions[i], topo.positions[0]),
              config.extent_m + 1e-9);
  }
}

TEST(Topology, GridRoutesStepBetweenLatticeNeighbors) {
  TopologyConfig config;
  config.kind = TopologyKind::Grid;
  config.nodes = 24;  // 5x5 lattice including the hub
  config.extent_m = 4.0;
  config.link_range_m = 1.0;  // pitch wins when larger
  util::Rng rng(1);
  const Topology topo = build_topology(config, rng);
  ASSERT_EQ(topo.size(), 25u);
  EXPECT_EQ(topo.reachable(), 25u);
  EXPECT_GE(topo.max_hops(), 2u);  // corners are multi-hop from center
  for (std::size_t i = 1; i < topo.size(); ++i) {
    ASSERT_NE(topo.next_hop[i], kNoRoute);
    EXPECT_EQ(topo.hops[i], topo.hops[topo.next_hop[i]] + 1);
  }
}

TEST(Topology, RandomGeometricIsDeterministicPerSeed) {
  TopologyConfig config;
  config.kind = TopologyKind::RandomGeometric;
  config.nodes = 50;
  config.extent_m = 2.0;
  config.link_range_m = 1.0;
  util::Rng rng_a(9), rng_b(9), rng_c(10);
  const Topology a = build_topology(config, rng_a);
  const Topology b = build_topology(config, rng_b);
  const Topology c = build_topology(config, rng_c);
  ASSERT_EQ(a.size(), b.size());
  bool same_as_c = a.size() == c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positions[i].x_m, b.positions[i].x_m);
    EXPECT_EQ(a.positions[i].y_m, b.positions[i].y_m);
    EXPECT_EQ(a.next_hop[i], b.next_hop[i]);
    if (same_as_c && (a.positions[i].x_m != c.positions[i].x_m)) {
      same_as_c = false;
    }
  }
  EXPECT_FALSE(same_as_c);  // a different seed really moves the nodes
  // Routes, when present, always shorten the hop count by one.
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a.next_hop[i] == kNoRoute) continue;
    EXPECT_EQ(a.hops[i], a.hops[a.next_hop[i]] + 1);
    EXPECT_LE(distance_m(a.positions[i], a.positions[a.next_hop[i]]),
              config.link_range_m + 1e-9);
  }
}

/// The route BFS as it was before cell bucketing: every frontier node
/// checks every node, in index order. O(n^2); the reference for the
/// builders' routes.
void quadratic_bfs(const std::vector<Vec2>& positions, double range_m,
                   std::vector<std::uint32_t>& next_hop,
                   std::vector<std::uint32_t>& hops) {
  const std::size_t n = positions.size();
  next_hop.assign(n, kNoRoute);
  hops.assign(n, kNoRoute);
  next_hop[0] = 0;
  hops[0] = 0;
  std::vector<std::uint32_t> frontier{0};
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    next.clear();
    for (const std::uint32_t at : frontier) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (hops[j] != kNoRoute) continue;
        if (distance_m(positions[at], positions[j]) > range_m) continue;
        hops[j] = hops[at] + 1;
        next_hop[j] = at;
        next.push_back(j);
      }
    }
    frontier.swap(next);
  }
}

TEST(Topology, RoutesMatchTheQuadraticBfs) {
  // Random-geometric boxes from sparse (most tags stranded) to one hop,
  // and grids whose routes tie between lattice neighbours everywhere.
  std::vector<std::uint32_t> next_hop, hops;
  std::size_t cases = 0;
  for (const std::size_t nodes : {1, 7, 60, 400, 2000}) {
    for (const double range_m : {0.05, 0.3, 1.0, 5.0}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << nodes << " tags, " << range_m
                                        << " m, seed " << seed);
        TopologyConfig config;
        config.kind = TopologyKind::RandomGeometric;
        config.nodes = nodes;
        config.link_range_m = range_m;
        util::Rng rng(seed);
        const Topology topo = build_topology(config, rng);
        quadratic_bfs(topo.positions, range_m, next_hop, hops);
        EXPECT_EQ(topo.next_hop, next_hop);
        EXPECT_EQ(topo.hops, hops);
        ++cases;
      }
    }
  }
  for (const std::size_t nodes : {3, 99, 2499}) {
    SCOPED_TRACE(testing::Message() << nodes << "-tag grid");
    TopologyConfig config;
    config.kind = TopologyKind::Grid;
    config.nodes = nodes;
    config.extent_m = 10.0;
    util::Rng rng(1);
    const Topology topo = build_topology(config, rng);
    // The grid builder stretches the range to 1.05 lattice pitches.
    const double side = std::ceil(std::sqrt(static_cast<double>(nodes + 1)));
    const double pitch = config.extent_m / (side - 1.0);
    quadratic_bfs(topo.positions, std::max(config.link_range_m, pitch * 1.05),
                  next_hop, hops);
    EXPECT_EQ(topo.next_hop, next_hop);
    EXPECT_EQ(topo.hops, hops);
    EXPECT_EQ(topo.reachable(), nodes + 1);
    ++cases;
  }
  EXPECT_EQ(cases, 163u);
}

TEST(Topology, RejectsBadConfig) {
  util::Rng rng(1);
  TopologyConfig zero_nodes;
  zero_nodes.nodes = 0;
  EXPECT_THROW(build_topology(zero_nodes, rng), std::invalid_argument);
  TopologyConfig bad_extent;
  bad_extent.extent_m = 0.0;
  EXPECT_THROW(build_topology(bad_extent, rng), std::invalid_argument);
  TopologyConfig bad_range;
  bad_range.link_range_m = -1.0;
  EXPECT_THROW(build_topology(bad_range, rng), std::invalid_argument);
}

TEST(SharedMedium, TracksAmbientAndPenalty) {
  const std::vector<Vec2> positions{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  MediumConfig config;
  SharedMedium medium(config, positions);
  // Quiet channel: ambient is the bare noise floor, penalty zero.
  EXPECT_NEAR(medium.ambient_dbm(0, 0), config.noise_floor_dbm, 1e-9);
  EXPECT_DOUBLE_EQ(medium.interference_penalty_db(0, 1), 0.0);

  medium.begin(2, 0, 1.0, config.tx_power_dbm);
  EXPECT_EQ(medium.active_count(), 1u);
  // Node 1 hears node 2 at 1 m: 0 dBm - 40 dB ref loss = -40 dBm, which
  // dominates the -90 dBm floor.
  EXPECT_NEAR(medium.ambient_dbm(1, 1), -40.0, 0.1);
  // The receiver of an interfered link eats a positive SNR penalty; the
  // interfering link's own receiver (excluded tx) does not.
  EXPECT_GT(medium.interference_penalty_db(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(medium.interference_penalty_db(0, 2), 0.0);
  medium.end(2);
  EXPECT_EQ(medium.active_count(), 0u);
  EXPECT_NEAR(medium.ambient_dbm(1, 1), config.noise_floor_dbm, 1e-9);
}

TEST(SharedMedium, CcaVerdictEqualsTheExactAmbientCompare) {
  // ambient_below() decides from bounds on each interferer's path gain;
  // every verdict must equal ambient_dbm(...) < threshold. Random
  // positions in a 4 m box and random active sets (active and -30 dB
  // backscatter powers) at the two backends' thresholds, plus thresholds
  // at the exact ambient and its neighbouring doubles, which the bounds
  // cannot decide. Node 200 sits 5 km out, past the gain table; it
  // senses first in every trial and transmits in some.
  util::Rng rng(2027);
  std::vector<Vec2> positions;
  constexpr std::uint32_t kNear = 200;
  for (std::uint32_t i = 0; i < kNear; ++i) {
    positions.push_back({rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)});
  }
  const std::uint32_t far = kNear;
  positions.push_back({5000.0, 0.0});
  MediumConfig config;
  SharedMedium medium(config, positions);

  std::uint64_t busy = 0;
  std::uint64_t clear = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint32_t> on_air;
    const std::uint64_t active = rng.uniform_int(0, 40);
    for (std::uint64_t k = 0; k < active; ++k) {
      const auto tx = static_cast<std::uint32_t>(rng.uniform_int(0, kNear));
      if (std::find(on_air.begin(), on_air.end(), tx) != on_air.end()) {
        continue;
      }
      on_air.push_back(tx);
      medium.begin(tx, 0, 1.0, rng.bernoulli(0.5) ? config.tx_power_dbm
                                                  : config.tx_power_dbm - 30.0);
    }
    for (int q = 0; q < 20; ++q) {
      const auto node = static_cast<std::uint32_t>(
          q == 0 ? far : rng.uniform_int(0, kNear));
      // The simulator excludes the sensing node itself; also exclude a
      // transmitter on the air now and then, as the penalty does.
      const std::uint32_t exclude =
          (!on_air.empty() && rng.bernoulli(0.25))
              ? on_air[rng.uniform_int(0, on_air.size() - 1)]
              : node;
      const double ambient = medium.ambient_dbm(node, exclude);
      const double inf = std::numeric_limits<double>::infinity();
      for (const double threshold :
           {-60.0, -70.0, ambient, std::nextafter(ambient, -inf),
            std::nextafter(ambient, inf)}) {
        const bool want = ambient < threshold;
        ASSERT_EQ(medium.ambient_below(node, exclude, threshold), want)
            << "node " << node << " exclude " << exclude << " threshold "
            << threshold << " ambient " << ambient;
        if (threshold == -60.0 || threshold == -70.0) {
          ++(want ? clear : busy);
        }
      }
    }
    for (const std::uint32_t tx : on_air) medium.end(tx);
  }
  // Both verdicts really occur at the backends' thresholds.
  EXPECT_GT(busy, 1000u);
  EXPECT_GT(clear, 1000u);
}

TEST(SharedMedium, CcaVerdictFallsBackPastTheGainTable) {
  // Two transmitters 5 km from the sensing node, where the gain table
  // ends: the verdict comes from the exact sum, on both sides of it.
  const std::vector<Vec2> positions{{0.0, 0.0}, {5000.0, 0.0}, {0.0, 5000.0}};
  SharedMedium medium(MediumConfig{}, positions);
  medium.begin(1, 0, 1.0, 0.0);
  medium.begin(2, 0, 1.0, 0.0);
  const double ambient = medium.ambient_dbm(0, 0);
  EXPECT_GT(ambient, MediumConfig{}.noise_floor_dbm);
  EXPECT_TRUE(medium.ambient_below(0, 0, -60.0));
  EXPECT_FALSE(medium.ambient_below(0, 0, ambient));
  EXPECT_TRUE(medium.ambient_below(
      0, 0, std::nextafter(ambient, std::numeric_limits<double>::infinity())));
  EXPECT_FALSE(medium.ambient_below(0, 0, -95.0));
}

TEST(SharedMedium, SumsCarryTheBitsOfAMemoFreeReference) {
  // Random begin/end sequences on a star and on a random layout, with
  // penalty, ambient and CCA queries at the hub and at random nodes
  // interleaved. Every answer must carry the bits of the plain
  // insertion-order sum below, which remembers nothing between queries.
  struct OnAir {
    std::uint32_t tx;
    double gain_w;
  };
  const MediumConfig config;
  const double ref_gain = std::pow(10.0, -config.ref_loss_db / 10.0);
  const double noise_w = util::dbm_to_watts(config.noise_floor_dbm);
  const double half_exponent = -0.5 * config.path_loss_exponent;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const bool star : {true, false}) {
    util::Rng rng(star ? 41 : 42);
    constexpr std::uint32_t kNodes = 300;
    std::vector<Vec2> positions{{0.0, 0.0}};
    for (std::uint32_t i = 1; i < kNodes; ++i) {
      if (star) {
        const double r = 2.0 * std::sqrt(rng.uniform());
        const double a = rng.uniform(0.0, 6.283185307179586);
        positions.push_back({r * std::cos(a), r * std::sin(a)});
      } else {
        positions.push_back({rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)});
      }
    }
    SharedMedium medium(config, positions);
    std::vector<OnAir> on_air;
    const auto reference_w = [&](std::uint32_t node, std::uint32_t exclude) {
      double total_w = 0.0;
      for (const OnAir& a : on_air) {
        if (a.tx == exclude || a.tx == node) continue;
        const double dx = positions[a.tx].x_m - positions[node].x_m;
        const double dy = positions[a.tx].y_m - positions[node].y_m;
        const double d2 = std::max(dx * dx + dy * dy, 1e-4);
        total_w += a.gain_w * std::pow(d2, half_exponent);
      }
      return total_w;
    };
    std::uint64_t queries = 0;
    for (int step = 0; step < 20000; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.15 && on_air.size() < 40) {
        const auto tx =
            static_cast<std::uint32_t>(rng.uniform_int(1, kNodes - 1));
        if (std::any_of(on_air.begin(), on_air.end(),
                        [tx](const OnAir& a) { return a.tx == tx; })) {
          continue;
        }
        const double levels[] = {config.tx_power_dbm,
                                 config.tx_power_dbm - 30.0, -12.5,
                                 rng.uniform(-40.0, 10.0)};
        const double power_dbm = levels[rng.uniform_int(0, 3)];
        medium.begin(tx, 0, 1.0, power_dbm);
        on_air.push_back({tx, util::dbm_to_watts(power_dbm) * ref_gain});
        continue;
      }
      if (roll < 0.3 && !on_air.empty()) {
        const std::size_t k = rng.uniform_int(0, on_air.size() - 1);
        medium.end(on_air[k].tx);
        on_air.erase(on_air.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      const auto node = static_cast<std::uint32_t>(
          rng.bernoulli(0.6) ? 0 : rng.uniform_int(0, kNodes - 1));
      const std::uint32_t exclude =
          (!on_air.empty() && rng.bernoulli(0.7))
              ? on_air[rng.uniform_int(0, on_air.size() - 1)].tx
              : node;
      const double i_w = reference_w(node, exclude);
      const double ambient = util::watts_to_dbm(noise_w + i_w);
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const double want =
              i_w <= 0.0 ? 0.0 : util::linear_to_db(1.0 + i_w / noise_w);
          ASSERT_EQ(bits(medium.interference_penalty_db(node, exclude)),
                    bits(want))
              << "star " << star << " step " << step << " node " << node;
          break;
        }
        case 1:
          ASSERT_EQ(bits(medium.ambient_dbm(node, exclude)), bits(ambient))
              << "star " << star << " step " << step << " node " << node;
          break;
        default: {
          const double inf = std::numeric_limits<double>::infinity();
          for (const double threshold :
               {-60.0, ambient, std::nextafter(ambient, inf)}) {
            ASSERT_EQ(medium.ambient_below(node, exclude, threshold),
                      ambient < threshold)
                << "star " << star << " step " << step << " node " << node;
          }
        }
      }
      ++queries;
    }
    EXPECT_GT(queries, 10000u);
  }
}

TEST(SharedMedium, PathLossFollowsTheLogDistanceModel) {
  const std::vector<Vec2> positions{{0.0, 0.0}};
  MediumConfig config;
  SharedMedium medium(config, positions);
  EXPECT_NEAR(medium.path_loss_db(1.0), config.ref_loss_db, 1e-12);
  EXPECT_NEAR(medium.path_loss_db(10.0),
              config.ref_loss_db + 10.0 * config.path_loss_exponent,
              1e-9);
  // The 1 cm floor keeps colocated nodes finite.
  EXPECT_EQ(medium.path_loss_db(0.0), medium.path_loss_db(0.01));
}

TEST(NetworkSimulator, RejectsBadConfig) {
  NetConfig no_backend;
  EXPECT_THROW(NetworkSimulator{no_backend}, std::invalid_argument);
  NetConfig big_payload;
  big_payload.backend = &backend(backends::kBraidio);
  big_payload.payload_bytes = 100000;
  EXPECT_THROW(NetworkSimulator{big_payload}, std::invalid_argument);
}

TEST(NetworkSimulator, DeliversOnAQuietStar) {
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.topology.nodes = 4;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 2;
  NetworkSimulator sim(config);
  EXPECT_FALSE(sim.link_point(0).has_value());  // the hub has no uplink
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.generated, 8u);
  EXPECT_EQ(stats.delivered, 8u);
  EXPECT_EQ(stats.forwarded, 0u);
  EXPECT_EQ(stats.reachable, 5u);
  EXPECT_EQ(stats.planned, 4u);
  EXPECT_GT(stats.hub_joules, 0.0);
  EXPECT_GT(stats.bits_per_joule(), 0.0);
  for (std::uint32_t i = 1; i < 5; ++i) {
    EXPECT_TRUE(sim.link_point(i).has_value());
    EXPECT_EQ(sim.node(i).stats().delivered, 2u);
  }
}

TEST(NetworkSimulator, GridRelaysMultiHopTraffic) {
  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.topology.kind = TopologyKind::Grid;
  config.topology.nodes = 24;
  config.topology.extent_m = 2.0;  // 0.5 m pitch: links well inside range
  config.topology.link_range_m = 0.6;
  config.packets_per_node = 1;
  NetworkSimulator sim(config);
  ASSERT_GE(sim.topology().max_hops(), 2u);
  const NetStats stats = sim.run();
  EXPECT_GT(stats.forwarded, 0u);  // relays really carried frames
  EXPECT_GT(stats.delivered, stats.generated / 2);
}

TEST(NetworkSimulator, ReaderPassiveBackendRunsWithoutCca) {
  // Pure backscatter tags have no receiver to sense with: the run must
  // rely on backoff jitter alone and still deliver on a small star.
  NetConfig config;
  config.backend = &backend(backends::kReaderPassive);
  config.topology.nodes = 6;
  config.topology.extent_m = 0.4;
  config.packets_per_node = 2;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(stats.csma_failures, 0u);  // no CCA, no CCA failures
  EXPECT_GT(stats.delivered, 0u);
}

TEST(NetworkSimulator, EnergyConservesExactlyAcrossAThousandNodes) {
  // Several seeds: seeds 1, 2, 4, 5 and 8 each leave a few radios' sleep
  // fill one ULP short of the final time, which the clock pin below must
  // allow.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    NetConfig config;
    config.backend = &backend(backends::kBraidio);
    config.topology.nodes = 1000;
    config.topology.extent_m = 1.5;
    config.packets_per_node = 1;
    config.kick_spread_s = 0.25;
    config.seed = seed;
    NetworkSimulator sim(config);
    const NetStats stats = sim.run();
    ASSERT_EQ(stats.node_joules.size(), 1001u);
    ASSERT_EQ(sim.node_count(), 1001u);

    // The global total is EXACTLY the index-ordered sum of the per-node
    // ledgers — same values, same order, same floating-point result.
    double sum = 0.0;
    for (const double j : stats.node_joules) sum += j;
    EXPECT_EQ(stats.total_joules, sum);
    EXPECT_EQ(stats.hub_joules, stats.node_joules[0]);

    // Each node's ledger is the stats value verbatim, covers the whole
    // run (sleep fill), and matches its battery's drain. The fill adds
    // gap = elapsed - clock back onto the clock, and that sum rounds, so
    // a clock may land one ULP below elapsed_s, never further.
    const double one_ulp_short = std::nextafter(stats.elapsed_s, 0.0);
    for (std::uint32_t i = 0; i < 1001; ++i) {
      const hal::IRadio& radio = sim.node(i).radio();
      EXPECT_EQ(stats.node_joules[i], radio.ledger().total_joules());
      const double drained = radio.battery().capacity_joules() -
                             radio.battery().remaining_joules();
      EXPECT_NEAR(radio.ledger().total_joules(), drained,
                  1e-9 * radio.battery().capacity_joules());
      EXPECT_GE(radio.clock_s(), one_ulp_short) << "node " << i;
    }
  }
}

TEST(NetworkSimulator, SweepsAreByteIdenticalSerialVsParallel) {
  const auto run_with_threads = [&](unsigned threads) {
    sim::Scenario scenario(
        "net_determinism", {sim::Axis::indexed("replica", 6)},
        {"events", "delivered", "joules"},
        [&](sim::SweepPoint& p) {
          NetConfig config;
          config.backend = &backend(backends::kBraidio);
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
                          std::to_string(stats.delivered), joules.str()};
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

TEST(NetworkSimulator, NodeTargetedFaultsHitOnlyTheirNode) {
  // Tag 1 sits under a run-long carrier dropout; tag 2 is untouched.
  std::istringstream script("dropout 0 1e6 @1\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule schedule(*timeline);

  NetConfig config;
  config.backend = &backend(backends::kBraidio);
  config.topology.nodes = 2;
  config.topology.extent_m = 0.3;
  config.packets_per_node = 2;
  config.impairments = &schedule;
  NetworkSimulator sim(config);
  const NetStats stats = sim.run();
  EXPECT_EQ(sim.node(1).stats().delivered, 0u);  // dropout eats every try
  EXPECT_EQ(sim.node(2).stats().delivered, 2u);
  EXPECT_EQ(stats.arq_drops, 2u);  // both of tag 1's frames timed out
}

TEST(NetworkSimulator, EveryFrameAndCounterIsAccountedFor) {
  // 288 runs of 60 tags x 3 frames: every backend, MAC, topology, three
  // seeds, healthy or with tag 5 silenced for good (under TDMA it spends
  // its registration budget), and 0.5 Wh tags or 2e-7 Wh tags that die
  // mid-run.
  std::istringstream script("dropout 0 1e6 @5\n");
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const sim::faults::ImpairmentSchedule dropout(*timeline);

  for (const char* name : {backends::kBraidio, backends::kBleActive,
                           backends::kReaderPassive, backends::kBlispHybrid}) {
    for (const MacKind mac : {MacKind::Csma, MacKind::Tdma}) {
      for (const TopologyKind kind :
           {TopologyKind::Star, TopologyKind::Grid,
            TopologyKind::RandomGeometric}) {
        for (const std::uint64_t seed : {1, 2, 7}) {
          for (const bool faulted : {false, true}) {
            for (const double tag_wh : {0.5, 2e-7}) {
              std::ostringstream label;
              label << name << ' ' << to_string(mac) << ' '
                    << to_string(kind) << " seed " << seed
                    << (faulted ? " faulted " : " healthy ") << tag_wh
                    << " Wh";
              SCOPED_TRACE(label.str());
              NetConfig config;
              config.backend = &backend(name);
              config.mac = mac;
              config.topology.kind = kind;
              config.topology.nodes = 60;
              config.packets_per_node = 3;
              config.seed = seed;
              config.tag_battery_wh = tag_wh;
              if (faulted) config.impairments = &dropout;
              NetworkSimulator sim(config);
              const NetStats stats = sim.run();

              std::uint64_t queued = 0, acked = 0;
              double joules = 0.0;
              for (std::uint32_t i = 0; i < sim.node_count(); ++i) {
                const Node& node = sim.node(i);
                const NodeStats& counts = node.stats();
                EXPECT_EQ(counts.tx_attempts,
                          counts.uplink_acked + counts.uplink_data_lost +
                              counts.uplink_ack_lost)
                    << "node " << i;
                queued += node.backlog();
                acked += counts.uplink_acked;
                const hal::IRadio& radio = node.radio();
                EXPECT_EQ(stats.node_joules[i], radio.ledger().total_joules())
                    << "node " << i;
                const double capacity = radio.battery().capacity_joules();
                EXPECT_NEAR(radio.ledger().total_joules(),
                            capacity - radio.battery().remaining_joules(),
                            1e-9 * capacity)
                    << "node " << i;
                joules += stats.node_joules[i];
              }
              EXPECT_EQ(stats.total_joules, joules);
              EXPECT_EQ(acked, stats.delivered + stats.forwarded);
              // A frame may be left without a terminal state only while
              // in flight at a node whose battery died.
              const std::uint64_t settled = stats.delivered +
                                            stats.csma_failures +
                                            stats.arq_drops + queued;
              ASSERT_LE(settled, stats.generated);
              EXPECT_LE(stats.generated - settled, stats.battery_deaths);
            }
          }
        }
      }
    }
  }
}

/// FNV-1a over 64-bit words: folds a run's counters and every joule's
/// bit pattern into one number.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      value ^= (w >> (8 * b)) & 0xffu;
      value *= 0x100000001b3ull;
    }
  }
  void real(double x) { word(std::bit_cast<std::uint64_t>(x)); }
};

/// Folds what the simulated schedule determines. The event queue's own
/// tuning counters (NetStats::sched_*) are left out: re-tuning the queue
/// moves them without changing a single event.
void fold_run(Digest& d, const NetworkSimulator& sim, const NetStats& s) {
  for (const std::uint64_t w :
       {s.events, s.generated, s.delivered, s.forwarded, s.tx_attempts,
        s.csma_failures, s.arq_drops, s.battery_deaths,
        static_cast<std::uint64_t>(s.reachable),
        static_cast<std::uint64_t>(s.planned),
        static_cast<std::uint64_t>(s.max_hops), s.mac.rounds,
        s.mac.registrations, s.mac.slots_reclaimed}) {
    d.word(w);
  }
  for (const double x : {s.elapsed_s, s.hub_joules, s.total_joules,
                         s.delivered_payload_bits}) {
    d.real(x);
  }
  for (const double j : s.node_joules) d.real(j);
  for (std::uint32_t i = 0; i < sim.node_count(); ++i) {
    const Node& node = sim.node(i);
    const NodeStats& c = node.stats();
    for (const std::uint64_t w :
         {c.generated, c.delivered, c.forwarded, c.tx_attempts,
          c.csma_failures, c.arq_drops, c.cca_busy, c.backoff_draws,
          c.collisions, c.fault_losses, c.slot_registrations,
          c.slots_reclaimed, c.uplink_acked, c.uplink_data_lost,
          c.uplink_ack_lost, static_cast<std::uint64_t>(node.backlog()),
          static_cast<std::uint64_t>(node.alive())}) {
      d.word(w);
    }
  }
}

/// One (backend, MAC, topology) cell of the schedule pin and the
/// digest its 12 runs folded to when it was recorded.
struct ScheduleCell {
  const char* backend;
  const char* mac;  // "csma" or "tdma"
  const char* topology;
  std::uint64_t digest;
};

// Re-recorded when util::Rng moved from mt19937_64 to xoshiro256**,
// which redraws every stream (RunsMatchRecordedDistribution below checks
// that the outcomes kept their distribution); the O(n) route BFS landed
// after and left every cell unchanged.
constexpr ScheduleCell kRecordedSchedules[] = {
    {"braidio", "csma", "star", 0x56e2582a5052c0a9},
    {"braidio", "csma", "grid", 0x3e7196641670f3f0},
    {"braidio", "csma", "rgg", 0xafa5516c5576a48b},
    {"braidio", "tdma", "star", 0x30f2a0dfebab7669},
    {"braidio", "tdma", "grid", 0xc9196bc7e1ef0868},
    {"braidio", "tdma", "rgg", 0x384404e263bbb1b3},
    {"ble-active", "csma", "star", 0xfdabb2935493b15e},
    {"ble-active", "csma", "grid", 0x3dc92b58241c5851},
    {"ble-active", "csma", "rgg", 0xa8706ff6f855f17b},
    {"ble-active", "tdma", "star", 0x1833c8ca04376951},
    {"ble-active", "tdma", "grid", 0x29486b32dd86e09e},
    {"ble-active", "tdma", "rgg", 0x9a51603758160818},
    {"reader-passive", "csma", "star", 0x5bc61c41f7b870fd},
    {"reader-passive", "csma", "grid", 0x2a7d6387ca513001},
    {"reader-passive", "csma", "rgg", 0x866befb9529eaf4c},
    {"reader-passive", "tdma", "star", 0x48ab469030fb7bc9},
    {"reader-passive", "tdma", "grid", 0x5610a18a5790586a},
    {"reader-passive", "tdma", "rgg", 0xafbe79c847d7ff6b},
    {"blisp-hybrid", "csma", "star", 0x375787746e24f761},
    {"blisp-hybrid", "csma", "grid", 0xaea11483bee4ac06},
    {"blisp-hybrid", "csma", "rgg", 0x294df669f9974bdc},
    {"blisp-hybrid", "tdma", "star", 0x48dda83c28fce1e1},
    {"blisp-hybrid", "tdma", "grid", 0x937e82635f196c75},
    {"blisp-hybrid", "tdma", "rgg", 0x2af3542abacab954},
};

// Dense contention, where CCA decides most attempts: 2,000-tag stars at
// the default 2 m extent, 4 frames a tag. The braidio star hears ~20
// overlapping -30 dB reflections against a -60 dBm threshold; the
// ble-active star hears active transmitters against -70 dBm.
// Re-recorded with the generator change, like the cells above.
constexpr ScheduleCell kRecordedDenseSchedules[] = {
    {"braidio", "csma", "star", 0x8112c4daeae3f744},
    {"ble-active", "csma", "star", 0x7cce8f3e30b2ad9e},
};

sim::faults::ImpairmentSchedule parse_schedule(const char* text) {
  std::istringstream script(text);
  std::string error;
  const auto timeline = sim::faults::FaultTimeline::parse(script, &error);
  if (!timeline) throw std::invalid_argument(error);
  return sim::faults::ImpairmentSchedule(*timeline);
}

/// Checks a cell's digest; a mismatch prints the cell's table line.
void expect_recorded(const ScheduleCell& cell, const Digest& digest) {
  char recorded[160];
  std::snprintf(recorded, sizeof recorded,
                "{\"%s\", \"%s\", \"%s\", 0x%016llx}", cell.backend,
                cell.mac, cell.topology,
                static_cast<unsigned long long>(digest.value));
  EXPECT_EQ(digest.value, cell.digest) << "schedule changed: " << recorded;
}

TEST(NetworkSimulator, ScheduleMatchesRecordedDigests) {
  // 288 runs of 60 tags x 3 frames. Each cell folds 12 of them: healthy,
  // tag 5 silenced for good, or a network-wide shadowing window plus a
  // dropout at tag 3; 0.5 Wh tags or 2e-7 Wh tags that die mid-run;
  // seeds 1 and 7. Then 4 dense runs: each dense cell folds one healthy
  // 2,000-tag star per seed.
  const sim::faults::ImpairmentSchedule dropout =
      parse_schedule("dropout 0 1e6 @5\n");
  const sim::faults::ImpairmentSchedule shadowed =
      parse_schedule("shadowing 0.2 0.6 12\ndropout 0.1 0.3 @3\n");
  const sim::faults::ImpairmentSchedule* faults[] = {nullptr, &dropout,
                                                     &shadowed};

  for (const ScheduleCell& cell : kRecordedSchedules) {
    // blisp-hybrid plans braidio's backscatter point on every hop within
    // backscatter's 2.4 m reach, so its cells spread the tags until the
    // far uplinks go active (braidio's go passive there).
    const bool wide = std::string(cell.backend) == backends::kBlispHybrid;
    Digest digest;
    for (const sim::faults::ImpairmentSchedule* fault : faults) {
      for (const double tag_wh : {0.5, 2e-7}) {
        for (const std::uint64_t seed : {1, 7}) {
          NetConfig config;
          config.backend = &backend(cell.backend);
          config.mac = parse_mac(cell.mac);
          config.topology.kind = *parse_topology(cell.topology);
          config.topology.nodes = 60;
          if (wide) {
            config.topology.extent_m = 4.0;
            config.topology.link_range_m = 3.0;
          }
          config.packets_per_node = 3;
          config.seed = seed;
          config.tag_battery_wh = tag_wh;
          config.impairments = fault;
          NetworkSimulator sim(config);
          const NetStats stats = sim.run();
          fold_run(digest, sim, stats);
        }
      }
    }
    expect_recorded(cell, digest);
  }

  for (const ScheduleCell& cell : kRecordedDenseSchedules) {
    Digest digest;
    for (const std::uint64_t seed : {1, 7}) {
      NetConfig config;
      config.backend = &backend(cell.backend);
      config.mac = parse_mac(cell.mac);
      config.topology.kind = *parse_topology(cell.topology);
      config.topology.nodes = 2000;
      config.packets_per_node = 4;
      config.seed = seed;
      NetworkSimulator sim(config);
      const NetStats stats = sim.run();
      fold_run(digest, sim, stats);
    }
    expect_recorded(cell, digest);
  }
}

/// One backend's uplink choices over a ladder of star extents: the
/// distinct choices in order of rising distance, and the digest of every
/// tag's choice when it was recorded.
struct LinkChoiceCell {
  const char* backend;
  const char* ladder;
  std::uint64_t digest;
};

// Recorded before plan_links took its candidates from the planner's
// direction rule (OffloadPlanner::intersect_candidates).
constexpr LinkChoiceCell kRecordedLinkChoices[] = {
    {"braidio",
     "backscatter@1M backscatter@100k backscatter@10k passive@1M "
     "passive@100k passive@10k active@1M none",
     0x1dd6554c34c07222},
    {"ble-active", "active@1M none", 0x09243eb9da2750a5},
    {"reader-passive", "backscatter@1M backscatter@100k backscatter@10k none",
     0xd8bc7a345cd44f45},
    {"blisp-hybrid",
     "backscatter@1M backscatter@100k backscatter@10k active@1M none",
     0x0446419a1eb3da84},
};

TEST(NetworkSimulator, LinkChoicesMatchRecordedLadders) {
  // A star is a deterministic sunflower, so each tag's uplink point
  // (mode@rate, or none) depends only on the backend and its distance,
  // and plan_links fixes it in the constructor. The extents put tags on
  // both sides of every range edge: backscatter 0.9/1.5/1.8/2.4/3/4 m,
  // passive 3.9/4.2/5.1 m, active 25/30 m.
  for (const LinkChoiceCell& cell : kRecordedLinkChoices) {
    Digest digest;
    std::vector<std::pair<double, std::string>> by_distance;
    for (const double extent :
         {0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 12.0, 28.0, 40.0}) {
      NetConfig config;
      config.backend = &backend(cell.backend);
      config.topology.nodes = 32;
      config.topology.extent_m = extent;
      const NetworkSimulator sim(config);
      const Topology& topo = sim.topology();
      for (std::uint32_t i = 1; i < sim.node_count(); ++i) {
        const auto point = sim.link_point(i);
        const std::string label = point ? point->label() : "none";
        for (const char ch : label) {
          digest.word(static_cast<unsigned char>(ch));
        }
        digest.word(0);
        by_distance.emplace_back(
            distance_m(topo.positions[i], topo.positions[0]), label);
      }
    }
    std::stable_sort(
        by_distance.begin(), by_distance.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string ladder, last;
    for (const auto& [d, label] : by_distance) {
      if (label == last) continue;
      if (!ladder.empty()) ladder += ' ';
      ladder += label;
      last = label;
    }
    char recorded[200];
    std::snprintf(recorded, sizeof recorded, "{\"%s\", \"%s\", 0x%016llx}",
                  cell.backend, ladder.c_str(),
                  static_cast<unsigned long long>(digest.value));
    EXPECT_EQ(ladder, cell.ladder) << "choices changed: " << recorded;
    EXPECT_EQ(digest.value, cell.digest) << "choices changed: " << recorded;
  }
}

/// One statistic's mean and standard error of the mean over seeds 1-16.
struct RecordedMoment {
  const char* name;
  double mean;
  double se;
};

/// Per-seed samples of each statistic, in RecordedMoment order.
using SeedSamples = std::vector<std::vector<double>>;

/// Each statistic's mean over the seeds must lie within 3 combined
/// standard errors of its recorded mean. A statistic that no seed moves
/// has SE 0 on both sides and must match exactly. A mismatch prints the
/// current moments in table form.
void expect_recorded_distribution(const char* config,
                                  const RecordedMoment* recorded,
                                  const SeedSamples& samples) {
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const std::vector<double>& xs = samples[k];
    const double n = static_cast<double>(xs.size());
    double mean = 0.0;
    for (const double x : xs) mean += x;
    mean /= n;
    double ss = 0.0;
    for (const double x : xs) ss += (x - mean) * (x - mean);
    const double se = std::sqrt(ss / (n - 1.0) / n);
    const RecordedMoment& want = recorded[k];
    const double tolerance = 3.0 * std::hypot(want.se, se);
    char now[96];
    std::snprintf(now, sizeof now, "{\"%s\", %.10g, %.6g}", want.name, mean,
                  se);
    EXPECT_LE(std::fabs(mean - want.mean), tolerance)
        << config << " moved: now " << now;
  }
}

// Recorded over seeds 1-16 while util::Rng still drew from
// std::mt19937_64, before it moved to xoshiro256**; the generator
// change redraws every stream but must not move these distributions.
// (a) 1,000-tag braidio CSMA star, 2 m extent, 4 frames a tag.
constexpr RecordedMoment kRecordedStar[] = {
    {"delivered", 27.1875, 0.3788},
    {"csma_failures", 3589.6875, 4.12383},
    {"arq_drops", 383.125, 4.11185},
    {"tx_attempts", 6272.8125, 23.8614},
    {"total_joules", 0.4593554541, 0.00277281},
};
// (b) 200-tag braidio random-geometric TDMA network, 20 dB shadowing on
// four nodes for the whole run.
constexpr RecordedMoment kRecordedRgg[] = {
    {"delivered", 711.3125, 19.5373},
    {"csma_failures", 0, 0},
    {"arq_drops", 88.6875, 19.5373},
    {"tx_attempts", 2262.5625, 116.787},
    {"total_joules", 0.307311584, 0.00483064},
};
// (c) a block-faded BraidedLink, phone -> watch at 3 m, 600 packets:
// delivered packets, ARQ drops, data attempts (offered + retransmissions)
// and both ledgers' joules. It has no CSMA, so no CCA failures.
constexpr RecordedMoment kRecordedFadedLink[] = {
    {"delivered", 587.1875, 0.852539},
    {"arq_drops", 12.8125, 0.852539},
    {"tx_attempts", 1076.375, 11.3904},
    {"total_joules", 0.1769896315, 0.00320435},
};

TEST(NetworkSimulator, RunsMatchRecordedDistribution) {
  constexpr std::uint64_t kSeeds = 16;
  const auto net_samples = [](const NetConfig& base) {
    SeedSamples samples(5);
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      NetConfig config = base;
      config.seed = seed;
      const NetStats s = NetworkSimulator(config).run();
      const double row[] = {static_cast<double>(s.delivered),
                            static_cast<double>(s.csma_failures),
                            static_cast<double>(s.arq_drops),
                            static_cast<double>(s.tx_attempts),
                            s.total_joules};
      for (std::size_t k = 0; k < samples.size(); ++k) {
        samples[k].push_back(row[k]);
      }
    }
    return samples;
  };

  NetConfig star;
  star.backend = &backend(backends::kBraidio);
  star.topology.nodes = 1000;
  star.topology.extent_m = 2.0;
  star.packets_per_node = 4;
  expect_recorded_distribution("star", kRecordedStar, net_samples(star));

  const sim::faults::ImpairmentSchedule shadowed = parse_schedule(
      "shadowing 0 1e6 20 @3\nshadowing 0 1e6 20 @17\n"
      "shadowing 0 1e6 20 @42\nshadowing 0 1e6 20 @101\n");
  NetConfig rgg;
  rgg.backend = &backend(backends::kBraidio);
  rgg.mac = MacKind::Tdma;
  rgg.topology.kind = TopologyKind::RandomGeometric;
  rgg.topology.nodes = 200;
  rgg.topology.extent_m = 1.5;
  rgg.topology.link_range_m = 0.8;
  rgg.packets_per_node = 4;
  rgg.impairments = &shadowed;
  expect_recorded_distribution("rgg", kRecordedRgg, net_samples(rgg));

  const hal::RadioBackend& braidio = backend(backends::kBraidio);
  const core::RegimeMap regimes(braidio);
  SeedSamples link(4);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto phone =
        braidio.create_radio("phone", 1, util::WattHours(6.55));
    const auto watch =
        braidio.create_radio("watch", 2, util::WattHours(0.78));
    core::BraidedLinkConfig config;
    config.distance_m = 3.0;
    config.block_fading = true;
    config.seed = seed;
    const core::BraidedLinkStats s =
        core::BraidedLink(*phone, *watch, regimes, config).run(600);
    const double row[] = {
        static_cast<double>(s.data_packets_delivered),
        static_cast<double>(s.data_packets_dropped),
        static_cast<double>(s.data_packets_offered + s.retransmissions),
        phone->ledger().total_joules() + watch->ledger().total_joules()};
    for (std::size_t k = 0; k < link.size(); ++k) link[k].push_back(row[k]);
  }
  expect_recorded_distribution("faded link", kRecordedFadedLink, link);
}

/// Pass-through backend whose channel counts BER evaluations.
class BerCountingBackend final : public hal::RadioBackend {
 public:
  explicit BerCountingBackend(const hal::RadioBackend& inner)
      : inner_(inner), channel_(inner.channel()) {}

  const std::string& name() const override { return inner_.name(); }
  const std::string& description() const override {
    return inner_.description();
  }
  const hal::Capabilities& caps() const override { return inner_.caps(); }
  const hal::ChannelModel& channel() const override { return channel_; }
  std::unique_ptr<hal::IRadio> create_radio(
      std::string name, std::uint8_t address,
      util::WattHours battery_capacity) const override {
    return inner_.create_radio(std::move(name), address, battery_capacity);
  }
  std::uint64_t ber_calls() const { return channel_.calls; }

 private:
  struct Channel final : hal::ChannelModel {
    explicit Channel(const hal::ChannelModel& wrapped) : inner(wrapped) {}
    double snr_db(hal::LinkMode mode, hal::Bitrate rate,
                  double distance_m) const override {
      return inner.snr_db(mode, rate, distance_m);
    }
    double ber_from_snr_db(hal::LinkMode mode,
                           double snr_db) const override {
      ++calls;
      return inner.ber_from_snr_db(mode, snr_db);
    }
    bool available(hal::LinkMode mode, hal::Bitrate rate,
                   double distance_m) const override {
      return inner.available(mode, rate, distance_m);
    }
    std::optional<hal::Bitrate> best_bitrate(
        hal::LinkMode mode, double distance_m) const override {
      return inner.best_bitrate(mode, distance_m);
    }
    double range_m(hal::LinkMode mode, hal::Bitrate rate) const override {
      return inner.range_m(mode, rate);
    }
    const hal::ChannelModel& inner;
    mutable std::uint64_t calls = 0;
  };

  const hal::RadioBackend& inner_;
  Channel channel_;
};

TEST(NetworkSimulator, StaticCleanLinksEvaluateBerOnce) {
  // TDMA keeps one transmitter on the air, so on a healthy grid every
  // tx-end sees no interference and no fault loss: each planned uplink
  // evaluates its BER once and reuses the delivery odds. A shadowing
  // window takes the full path for every tx-end inside it.
  const sim::faults::ImpairmentSchedule shadowed =
      parse_schedule("shadowing 0.2 0.6 12\ndropout 0.1 0.3 @3\n");
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "shadowed" : "healthy");
    BerCountingBackend counting(backend(backends::kBraidio));
    NetConfig config;
    config.backend = &counting;
    config.mac = MacKind::Tdma;
    config.topology.kind = TopologyKind::Grid;
    config.topology.nodes = 60;
    config.packets_per_node = 3;
    if (faulted) config.impairments = &shadowed;
    NetworkSimulator sim(config);
    const NetStats stats = sim.run();
    ASSERT_GT(stats.planned, 0u);
    ASSERT_GT(stats.tx_attempts, stats.planned);
    if (faulted) {
      EXPECT_GT(counting.ber_calls(), stats.planned);
    } else {
      EXPECT_EQ(counting.ber_calls(), stats.planned);
    }
  }
}

}  // namespace
}  // namespace braidio::net
