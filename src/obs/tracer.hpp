// Event tracer: per-lane ring buffers + Chrome trace / CSV export.
//
// Design goals, in priority order:
//   1. near-free when disabled — the BRAIDIO_TRACE_EVENT macro is a single
//      relaxed atomic load and a branch, and its arguments are NOT
//      evaluated (so call sites may pass `plan.summary().c_str()` freely);
//   2. bounded memory when enabled — each lane is a fixed-capacity ring
//      that overwrites its oldest events and counts what it dropped;
//   3. export anywhere — `to_chrome_json()` loads in chrome://tracing /
//      Perfetto, `to_csv()` is a flat timeline for pandas/gnuplot, both
//      exportable through the sim::export_artifact contract.
//
// Lanes and threads: each OS thread records into its own lane (no
// cross-thread contention beyond one uncontended mutex per record). When a
// thread exits, its lane is released back to a free list and the next new
// thread reuses it — a process that runs many sweeps, each starting its
// own short-lived threads, keeps a bounded number of lanes instead of
// leaking one ring per dead thread.
// Events within a lane are strictly time-ordered, so span pairs
// (DwellStart/End, SweepPointStart/End) nest correctly per lane.
//
// Thread safety: record/snapshot/clear/set_* may be called from any
// thread. The trace itself is observability output, NOT covered by the
// simulator's byte-identical determinism contract (wall timestamps and
// lane assignment depend on scheduling).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace braidio::obs {

/// Process-wide tracer singleton. Disabled (and empty) by default.
class Tracer {
 public:
  struct Lane;  // implementation detail (one ring buffer + bookkeeping)

  static Tracer& instance();

  /// Fast gate for instrumentation macros: one relaxed atomic load.
  static bool enabled() {
    return g_enabled.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on);

  /// Largest ring capacity: 2^24 events, 1 GiB of 64-byte events a lane.
  /// A lane allocates its whole ring on its thread's first event, so a
  /// larger capacity is refused here rather than failing that allocation
  /// inside model code.
  static constexpr std::size_t kMaxLaneCapacity = std::size_t{1} << 24;

  /// Ring capacity (events per lane, 1..kMaxLaneCapacity) for lanes
  /// created after the call. Existing lanes keep their capacity until
  /// the next clear().
  void set_lane_capacity(std::size_t events);
  std::size_t lane_capacity() const;

  /// Record one event into the calling thread's lane. Prefer the
  /// BRAIDIO_TRACE_EVENT macro (checks `enabled()` without evaluating
  /// arguments). `label` may be nullptr; it is truncated to
  /// kEventLabelCapacity chars.
  void record(EventType type, const char* label, double sim_s,
              double value);

  /// A consistent copy of one lane, oldest event first.
  struct LaneSnapshot {
    std::uint32_t lane = 0;
    std::vector<Event> events;      // chronological
    std::uint64_t recorded = 0;     // accepted by the ring
    std::uint64_t dropped = 0;      // overwritten by wraparound
  };

  struct Snapshot {
    std::vector<LaneSnapshot> lanes;  // ordered by lane id

    std::uint64_t total_recorded() const;
    std::uint64_t total_dropped() const;
    std::size_t total_events() const;
  };

  /// Copy out every lane (safe while other threads keep recording).
  Snapshot snapshot() const;

  /// Drop all recorded events and reset per-lane drop/sequence counters.
  /// Lanes themselves survive; their rings are re-sized to the current
  /// lane_capacity().
  void clear();

  /// Chrome trace_event JSON of the current contents — load the file in
  /// chrome://tracing or https://ui.perfetto.dev. Timestamps are wall
  /// microseconds since the process' monotonic epoch.
  std::string to_chrome_json() const;

  /// Flat CSV timeline: wall_s,lane,seq,type,label,sim_s,value.
  std::string to_csv() const;

 private:
  Tracer() = default;
  Lane& lane_for_this_thread();

  static std::atomic<bool> g_enabled;

  mutable std::mutex lanes_mu_;
  std::vector<std::shared_ptr<Lane>> lanes_;
  std::atomic<std::size_t> lane_capacity_{1u << 14};
};

/// Render a snapshot (exposed for tests; Tracer::to_* use these).
std::string chrome_trace_json(const Tracer::Snapshot& snapshot);
std::string trace_csv(const Tracer::Snapshot& snapshot);

}  // namespace braidio::obs
