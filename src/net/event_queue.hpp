// Central discrete-event scheduler for the many-node network simulator.
//
// A calendar queue over virtual time: events hash into time buckets of a
// fixed width, each bucket holds an intrusively linked list sorted by
// (time, seq), and dequeue walks the calendar the way a desk calendar is
// read — today's page first, later pages as the clock advances, wrapping
// around the bucket array once per "year". Amortized O(1) schedule/pop
// for workloads whose inter-event gaps are within a few bucket widths,
// which network traffic is by construction (airtimes and backoffs cluster
// around the frame duration the width is tuned to).
//
// Determinism rules (DESIGN.md §15):
//   * ties on time_s break by a monotonically increasing sequence number
//     assigned at schedule() — FIFO among simultaneous events, so the
//     pop order is a pure function of the schedule() call sequence;
//   * the calendar cursor is an integer day counter (bucket windows are
//     compared through floor(time / width), never through accumulated
//     floating-point bucket bounds), so wraparound laps cannot drift;
//   * events live in an index-addressed object pool (no pointers, no
//     per-event heap allocation on the hot path; freed slots recycle
//     through an intrusive free list), so no ordering decision ever
//     depends on allocation addresses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace braidio::net {

/// Pool index of an event; stable until the event is popped.
using EventId = std::uint32_t;
inline constexpr EventId kNoEvent = std::numeric_limits<EventId>::max();

/// One scheduled event. POD: consumers stash their state in the
/// node/kind discriminators and the payload word.
struct Event {
  double time_s = 0.0;    // virtual firing time
  std::uint64_t seq = 0;  // schedule-order tie-break
  std::uint32_t node = 0; // target node index
  std::uint32_t kind = 0; // consumer-defined discriminator
  std::uint64_t a = 0;    // payload word
  /// The queue's own: calendar day of time_s, set at schedule() and at
  /// every re-bucket, so pop() compares integers instead of dividing.
  std::uint64_t day = 0;
  EventId next = kNoEvent;  // intrusive bucket / free-list link
};
static_assert(sizeof(Event) == 48, "an event is 48 B of pool storage");

class EventQueue {
 public:
  /// Starts as a 64-bucket calendar of 250 us days, near a frame's
  /// airtime. It grows automatically when occupancy exceeds ~2
  /// events/bucket. When sorted inserts start scanning long chains
  /// (events clustering into far fewer days than there are buckets), the
  /// calendar re-tunes its width to twice the mean gap between recent
  /// clock-advancing pops, never below 1/64 of the live events' mean gap
  /// (a burst guard), and re-buckets — see bucket_width_s() for the
  /// current value. The re-tune trigger is a pure function of the
  /// schedule/pop call sequence, so pop order and determinism are
  /// unaffected.
  EventQueue();

  /// Schedule an event at `time_s` (>= now_s(); the virtual clock never
  /// runs backwards).
  void schedule(double time_s, std::uint32_t node, std::uint32_t kind,
                std::uint64_t a = 0);

  /// Pop the earliest event by (time_s, seq) into `out`; advances the
  /// virtual clock. Returns false when the queue is empty.
  bool pop(Event& out);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Virtual time of the last popped event (0 before the first pop).
  double now_s() const { return now_s_; }

  /// Events popped over this queue's lifetime (the events/sec numerator).
  std::uint64_t processed() const { return processed_; }

  /// Pool slots ever allocated (pinned by the pool-reuse test).
  std::size_t pool_slots() const { return pool_.size(); }

  /// Current day length; starts at 250 us and shrinks when the calendar
  /// re-tunes to a clustered workload.
  double bucket_width_s() const { return width_; }

  // --- introspection (NetStats::sched_*) ------------------------------
  // Lifetime-cumulative, like processed().
  /// Width re-tunes triggered by the insert-scan probe.
  std::uint64_t retunes() const { return retunes_; }
  /// Calendar doublings triggered by occupancy.
  std::uint64_t grows() const { return grows_; }
  /// Largest simultaneous event population ever held.
  std::uint64_t peak_size() const { return peak_size_; }
  /// Cumulative sorted-insert scan steps (the re-tune probe's cost
  /// signal, accumulated across probe windows).
  std::uint64_t scan_steps() const {
    return scan_total_ + probe_scan_steps_;
  }

 private:
  EventId acquire();
  void release(EventId id);
  /// Calendar day (bucket-window ordinal) a time belongs to.
  std::uint64_t day_of(double time_s) const;
  /// Bucket of a day: the bucket count starts at a power of two and only
  /// doubles, so a mask picks it without a division.
  std::size_t bucket_of(std::uint64_t day) const {
    return static_cast<std::size_t>(day) & (heads_.size() - 1);
  }
  /// Sorted insert into the bucket of `pool_[id].day`.
  void insert(EventId id);
  /// Double the calendar when occupancy gets dense, and re-tune the day
  /// width when sorted inserts degrade; re-buckets in place either way.
  void maybe_grow();
  /// Opens a new probe window at the current clock.
  void reset_probe();

  double width_;
  std::vector<EventId> heads_;  // bucket heads, sorted by (time, seq)
  std::vector<Event> pool_;
  EventId free_head_ = kNoEvent;
  std::size_t size_ = 0;
  std::uint64_t day_ = 0;  // calendar day the cursor is on
  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  // Insert-scan probe driving the width re-tune (reset every rebuild):
  // its inserts and scan steps, the clock when it opened, and the pops
  // since then that moved the clock forward.
  std::uint64_t probe_inserts_ = 0;
  std::uint64_t probe_scan_steps_ = 0;
  double probe_start_s_ = 0.0;
  std::uint64_t probe_advances_ = 0;
  // Introspection counters (see the accessors above).
  std::uint64_t retunes_ = 0;
  std::uint64_t grows_ = 0;
  std::uint64_t peak_size_ = 0;
  std::uint64_t scan_total_ = 0;  // scan steps from closed probe windows
  /// Latest time ever scheduled: with pops in time order, live events
  /// always sit in [now_s_, max_sched_s_], which bounds the live span
  /// O(1) for the width re-tune.
  double max_sched_s_ = 0.0;
};

}  // namespace braidio::net
