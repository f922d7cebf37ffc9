// Per-node network statistics and the flight recorder for src/net/.
//
// NodeStats is the only per-node counter store: each event site posts
// once (`++node.stats().x`), NetworkSimulator::run() sums the NetStats
// totals over the nodes in index order, and an armed recorder copies
// the records when the run ends. The counters are always on; only the
// recorder compiles out with BRAIDIO_OBS.
//
// The recorder holds three read-only planes (DESIGN.md §17):
//   * per-node stats — the copied NodeStats plus each node's uplink
//     destination, exported as per-node counters and as the per-link
//     delivery/loss matrix (every node has exactly one uplink hop
//     toward the hub, so the matrix is one row per source node);
//   * latency — end-to-end origin-to-hub seconds;
//   * scheduler series — time-bucketed calendar-queue depth, events,
//     width re-tunes, and insert scan cost, exported in the same
//     Chrome counter-track shape as the energy power tracks.
//
// A NetFlightRecord is a plain value owned by one simulator run; a
// sweep exports one record per point. Everything is inert (enabled ==
// false, all hooks no-ops) unless arm() ran, and arm() itself is a
// no-op when the BRAIDIO_OBS compile-time switch is off.
#pragma once

#include <cstddef>
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

/// Time-bucketed scheduler telemetry sampled once per popped event.
/// Buckets are capped; samples past the cap land in `skipped` so the
/// accounting identity sum(events) + skipped == pops always holds.
struct SchedulerSeries {
  static constexpr std::size_t kMaxBuckets = 1u << 16;

  double bucket_s = 0.25;
  std::vector<std::uint64_t> events;      // pops per bucket
  std::vector<std::uint64_t> peak_depth;  // max queue size seen
  std::vector<std::uint64_t> retunes;     // width re-tunes per bucket
  std::vector<std::uint64_t> scan_steps;  // insert scan steps per bucket
  std::uint64_t skipped = 0;              // samples past kMaxBuckets

  void sample(double sim_s, std::uint64_t depth, std::uint64_t retune_delta,
              std::uint64_t scan_delta);
};

/// The full flight record for one simulator run.
struct NetFlightRecord {
  bool enabled = false;
  std::vector<NodeStats> nodes;    // copied when the run ends
  std::vector<std::uint32_t> dst;  // uplink next hop; kNoRoute if stranded
  obs::HistogramData latency;      // end-to-end origin->hub seconds
  SchedulerSeries sched;

  // End-of-run scheduler summary (always cheap to collect; also echoed
  // into NetStats so benches can export it without the record).
  std::uint64_t events = 0;            // queue pops
  std::uint64_t sched_retunes = 0;     // bucket-width re-tunes
  std::uint64_t sched_grows = 0;       // bucket-array doublings
  std::uint64_t sched_peak_depth = 0;  // max simultaneous events
  std::uint64_t sched_scan_steps = 0;  // cumulative insert scan steps
  std::uint64_t sched_buckets = 0;     // calendar buckets at end of run
  double sched_width_s = 0.0;          // bucket width at end of run
  double elapsed_s = 0.0;              // simulated span covered

  /// Size the per-node rows for `topo`, take its uplink destinations,
  /// and mark the record live. No-op (record stays disabled) when
  /// BRAIDIO_OBS is compiled out.
  void arm(const Topology& topo, double sched_bucket_s);

  void note_delivery(double latency_s) {
    if (!enabled) return;
    latency.record(latency_s);
  }

  /// Deterministic JSON document (schema "braidio-netstats/v1").
  std::string to_json() const;
  /// Per-node CSV: one row per node with counters + uplink columns.
  std::string to_csv() const;
  /// Scheduler series as a Chrome trace of "ph":"C" counter tracks —
  /// the same shape the energy power-track export uses.
  std::string sched_chrome_counters() const;
};

}  // namespace braidio::net
