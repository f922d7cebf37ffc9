#include "net/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace braidio::net {

namespace {
/// Initial calendar: day length [s] and bucket count. The count only
/// ever doubles, so it stays a power of two (bucket_of() masks by it).
constexpr double kInitialWidthS = 250e-6;
constexpr std::size_t kInitialBuckets = 64;
static_assert((kInitialBuckets & (kInitialBuckets - 1)) == 0);

/// Largest time/width ratio the integer day counter can represent; far
/// beyond any simulated horizon, but a contract beats silent overflow.
constexpr double kMaxDays = 9.0e18;

/// Width re-tune probe: after this many inserts, check the mean scan.
constexpr std::uint64_t kProbeInserts = 64;
/// Mean sorted-insert scan length that triggers a width re-tune.
constexpr std::uint64_t kMaxMeanScan = 8;
/// Day-counter headroom kept when shrinking the width (days < 1e15).
constexpr double kWidthFloorDays = 1.0e15;
/// Burst guard: a re-tune never goes below the live-span width / 64.
constexpr double kBurstGuard = 64.0;
}  // namespace

EventQueue::EventQueue()
    : width_(kInitialWidthS), heads_(kInitialBuckets, kNoEvent) {}

EventId EventQueue::acquire() {
  if (free_head_ != kNoEvent) {
    const EventId id = free_head_;
    free_head_ = pool_[id].next;
    return id;
  }
  pool_.emplace_back();
  return static_cast<EventId>(pool_.size() - 1);
}

void EventQueue::release(EventId id) {
  pool_[id].next = free_head_;
  free_head_ = id;
}

std::uint64_t EventQueue::day_of(double time_s) const {
  return static_cast<std::uint64_t>(time_s / width_);
}

void EventQueue::insert(EventId id) {
  const Event& ev = pool_[id];
  EventId* link = &heads_[bucket_of(ev.day)];
  while (*link != kNoEvent) {
    const Event& at = pool_[*link];
    if (ev.time_s < at.time_s ||
        (ev.time_s == at.time_s && ev.seq < at.seq)) {
      break;
    }
    link = &pool_[*link].next;
    ++probe_scan_steps_;
  }
  pool_[id].next = *link;
  *link = id;
}

void EventQueue::maybe_grow() {
  const bool crowded = size_ > 2 * heads_.size();
  double new_width = width_;
  if (probe_inserts_ >= kProbeInserts) {
    if (probe_scan_steps_ > kMaxMeanScan * probe_inserts_ && size_ > 1) {
      // Long scans mean the live events cluster into far fewer days than
      // there are buckets. Re-tune the day length to twice the mean gap
      // (the classic calendar-queue rule), measured where the queue is
      // working: between this window's clock-advancing pops. A window
      // without one falls back to the live span's mean gap, bounded
      // O(1) because every live time is in [now_s_, max_sched_s_]. The
      // pop gap never goes below 1/64 of that span gap, so a burst of
      // simultaneous or nearly simultaneous events cannot collapse the
      // day in front of a sparse tail. Floored so the integer day
      // counter keeps ~1e15 days of headroom, and only ever shrinking (a
      // sparse calendar already pops via the day cursor / sparse jump),
      // with a 2x hysteresis so a borderline probe does not thrash
      // rebuilds.
      const double span = max_sched_s_ - now_s_;
      double cand = 2.0 * span / static_cast<double>(size_);
      if (probe_advances_ > 0) {
        const double gap = (now_s_ - probe_start_s_) /
                           static_cast<double>(probe_advances_);
        cand = std::max(2.0 * gap, cand / kBurstGuard);
      }
      cand = std::max(cand, max_sched_s_ / kWidthFloorDays);
      if (cand > 0.0 && cand < 0.5 * width_) new_width = cand;
    }
    scan_total_ += probe_scan_steps_;
    reset_probe();
  }
  const bool retune = new_width != width_;
  if (!crowded && !retune) return;
  if (crowded) ++grows_;
  if (retune) ++retunes_;
  // Collect every live event, resize/re-tune the calendar, re-bucket.
  // Collection walks buckets in index order and re-inserts sorted, so the
  // rebuild is a pure function of the queue contents.
  std::vector<EventId> live;
  live.reserve(size_);
  for (EventId& head : heads_) {
    for (EventId id = head; id != kNoEvent;) {
      const EventId next = pool_[id].next;
      live.push_back(id);
      id = next;
    }
    head = kNoEvent;
  }
  if (crowded) heads_.assign(heads_.size() * 2, kNoEvent);
  if (retune) {
    width_ = new_width;
    day_ = day_of(now_s_);  // same clock, new day units
  }
  for (const EventId id : live) {
    pool_[id].day = day_of(pool_[id].time_s);
    insert(id);
  }
  // The rebuild's own inserts must not count toward the next probe
  // (they do count toward the cumulative scan-cost telemetry).
  scan_total_ += probe_scan_steps_;
  reset_probe();
}

void EventQueue::reset_probe() {
  probe_inserts_ = 0;
  probe_scan_steps_ = 0;
  probe_start_s_ = now_s_;
  probe_advances_ = 0;
}

void EventQueue::schedule(double time_s, std::uint32_t node,
                          std::uint32_t kind, std::uint64_t a) {
  BRAIDIO_REQUIRE(std::isfinite(time_s) && time_s >= now_s_, "time_s",
                  time_s, "now_s", now_s_);
  const double days = time_s / width_;
  BRAIDIO_REQUIRE(days < kMaxDays, "time_s", time_s, "width_s", width_);
  const EventId id = acquire();
  Event& ev = pool_[id];
  ev.time_s = time_s;
  ev.seq = next_seq_++;
  ev.node = node;
  ev.kind = kind;
  ev.a = a;
  ev.day = static_cast<std::uint64_t>(days);
  ev.next = kNoEvent;
  max_sched_s_ = std::max(max_sched_s_, time_s);
  ++probe_inserts_;
  insert(id);
  ++size_;
  peak_size_ = std::max<std::uint64_t>(peak_size_, size_);
  maybe_grow();
}

bool EventQueue::pop(Event& out) {
  if (size_ == 0) return false;
  // One calendar lap from the cursor day: a bucket head fires only when
  // its own day has been reached, which keeps events a whole lap away
  // (wraparound) from firing a year early.
  const std::size_t buckets = heads_.size();
  EventId hit = kNoEvent;
  for (std::size_t step = 0; step < buckets; ++step) {
    const EventId head = heads_[bucket_of(day_)];
    if (head != kNoEvent && pool_[head].day <= day_) {
      hit = head;
      break;
    }
    ++day_;
  }
  if (hit == kNoEvent) {
    // Sparse region: nothing within the next lap. Jump the calendar
    // straight to the earliest head (deterministic bucket-index scan,
    // (time, seq) ordered).
    for (const EventId head : heads_) {
      if (head == kNoEvent) continue;
      const Event& ev = pool_[head];
      if (hit == kNoEvent || ev.time_s < pool_[hit].time_s ||
          (ev.time_s == pool_[hit].time_s && ev.seq < pool_[hit].seq)) {
        hit = head;
      }
    }
    day_ = pool_[hit].day;
  }
  heads_[bucket_of(day_)] = pool_[hit].next;
  out = pool_[hit];
  out.next = kNoEvent;
  if (out.time_s > now_s_) ++probe_advances_;
  now_s_ = out.time_s;
  release(hit);
  --size_;
  ++processed_;
  return true;
}

}  // namespace braidio::net
