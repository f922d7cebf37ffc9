// Per-node network statistics and the flight recorder for src/net/.
//
// NodeStats is the only per-node counter store: each event site posts
// once (`++node.stats().x`), NetworkSimulator::run() sums the NetStats
// totals over the nodes in index order, and an armed recorder copies
// the records when the run ends. The counters are always on; only the
// recorder compiles out with BRAIDIO_OBS.
//
// The record holds (DESIGN.md §17):
//   * per-node stats — the copied NodeStats plus each node's uplink
//     destination, exported as per-node counters and as the per-link
//     delivery/loss matrix (every node has exactly one uplink hop
//     toward the hub, so the matrix is one row per source node);
//   * latency — end-to-end origin-to-hub seconds.
// The scheduler's own summary is NetStats::sched_*, not part of the
// record.
//
// A NetFlightRecord is a plain value owned by one simulator run; a
// sweep exports one record per point. Everything is inert (enabled ==
// false, all hooks no-ops) unless arm() ran, and arm() itself is a
// no-op when the BRAIDIO_OBS compile-time switch is off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"

namespace braidio::net {

/// One node's counters. A hot-path post is one field increment.
struct NodeStats {
  std::uint64_t generated = 0;      // frames originated at this node
  std::uint64_t delivered = 0;      // originated frames that reached the hub
  std::uint64_t forwarded = 0;      // relayed frames passed one hop onward
  std::uint64_t tx_attempts = 0;    // physical transmissions
  std::uint64_t csma_failures = 0;  // frames dropped: channel access failed
  std::uint64_t arq_drops = 0;      // frames dropped: retry budget exhausted
  std::uint64_t cca_busy = 0;       // CCA windows that sampled the medium busy
  std::uint64_t backoff_draws = 0;  // CSMA backoff delays drawn
  std::uint64_t collisions = 0;     // un-acked attempts with interference
  std::uint64_t fault_losses = 0;   // un-acked attempts under a dropout fault
  std::uint64_t slot_registrations = 0;  // TDMA registrations completed
  std::uint64_t slots_reclaimed = 0;     // TDMA slots reclaimed from this node
  // Uplink outcomes: each resolved transmission lands in exactly one, so
  // after a run tx_attempts == uplink_acked + uplink_data_lost +
  // uplink_ack_lost.
  std::uint64_t uplink_acked = 0;      // data and ACK survived
  std::uint64_t uplink_data_lost = 0;  // data leg corrupted or unheard
  std::uint64_t uplink_ack_lost = 0;   // data survived, ACK leg lost

  /// Field-wise sum (run totals).
  NodeStats& operator+=(const NodeStats& other);
};

/// The full flight record for one simulator run.
struct NetFlightRecord {
  bool enabled = false;
  std::vector<NodeStats> nodes;    // copied when the run ends
  std::vector<std::uint32_t> dst;  // uplink next hop; kNoRoute if stranded
  obs::HistogramData latency;      // end-to-end origin->hub seconds
  std::uint64_t events = 0;        // queue pops
  double elapsed_s = 0.0;          // simulated span covered

  /// Size the per-node rows for `topo`, take its uplink destinations,
  /// and mark the record live. No-op (record stays disabled) when
  /// BRAIDIO_OBS is compiled out.
  void arm(const Topology& topo);

  void note_delivery(double latency_s) {
    if (!enabled) return;
    latency.record(latency_s);
  }

  /// Deterministic JSON document (schema "braidio-netstats/v2").
  std::string to_json() const;
  /// Per-node CSV: one row per node with counters + uplink columns.
  std::string to_csv() const;
};

}  // namespace braidio::net
