// Event-queue core + CSMA-CA state machine: the determinism substrate
// of the network simulator (DESIGN.md §15).
#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/csma.hpp"
#include "util/rng.hpp"

namespace braidio::net {
namespace {

/// Pops every event, handing each to `on_pop` (which may schedule more),
/// and fails unless the pops come out in strictly increasing (time, seq)
/// order. Returns the number popped.
template <typename OnPop>
std::uint64_t pop_all_in_order(EventQueue& queue, OnPop on_pop) {
  Event ev;
  std::uint64_t pops = 0;
  double last_time = 0.0;
  std::uint64_t last_seq = 0;
  while (queue.pop(ev)) {
    if (pops > 0 && !(ev.time_s > last_time ||
                      (ev.time_s == last_time && ev.seq > last_seq))) {
      ADD_FAILURE() << "pop " << pops << " out of (time, seq) order";
      break;
    }
    last_time = ev.time_s;
    last_seq = ev.seq;
    ++pops;
    on_pop(ev);
  }
  return pops;
}

/// 20,000 events spread over [1, 100] s wait behind a burst of 3,000
/// events from 0.5 s on, `step_s` apart and kept 1,000 deep: each burst
/// pop schedules the next burst event until all 3,000 are out. Every
/// burst insert scans its whole bucket, so the width re-tune fires
/// throughout the burst. Checks the pop order and count, and returns the
/// narrowest day the calendar used.
double burst_then_sparse_tail(double step_s) {
  EventQueue queue;
  util::Rng rng(13);
  for (std::uint32_t i = 0; i < 20000; ++i) {
    queue.schedule(rng.uniform(1.0, 100.0), i, 0);
  }
  double t = 0.5;
  std::uint32_t burst = 0;
  const auto schedule_burst = [&] {
    queue.schedule(t, burst++, 1);
    t += step_s;
  };
  while (burst < 1000) schedule_burst();
  double narrowest = queue.bucket_width_s();
  const std::uint64_t pops = pop_all_in_order(queue, [&](const Event& ev) {
    narrowest = std::min(narrowest, queue.bucket_width_s());
    if (ev.kind == 1 && burst < 3000) schedule_burst();
  });
  EXPECT_EQ(pops, 23000u);
  EXPECT_TRUE(queue.empty());
  return narrowest;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  queue.schedule(3.0, 3, 0);
  queue.schedule(1.0, 1, 0);
  queue.schedule(2.0, 2, 0);
  Event ev;
  for (std::uint32_t want = 1; want <= 3; ++want) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
    EXPECT_DOUBLE_EQ(queue.now_s(), static_cast<double>(want));
  }
  EXPECT_FALSE(queue.pop(ev));
  EXPECT_EQ(queue.processed(), 3u);
}

TEST(EventQueue, SameTimestampTiesBreakBySequence) {
  EventQueue queue;
  // Schedule out of node order at one instant: pops must follow the
  // schedule() call order (seq), not node ids or insertion luck.
  const std::uint32_t order[] = {7, 2, 9, 0, 5};
  for (const std::uint32_t node : order) queue.schedule(1.0, node, 0);
  Event ev;
  for (const std::uint32_t want : order) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
  }
}

TEST(EventQueue, PayloadWordsSurviveTheQueue) {
  EventQueue queue;
  queue.schedule(1.0, 4, 2, 0xDEADBEEFull);
  Event ev;
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 4u);
  EXPECT_EQ(ev.kind, 2u);
  EXPECT_EQ(ev.a, 0xDEADBEEFull);
}

TEST(EventQueue, PoolSlotsAreReusedNotLeaked) {
  EventQueue queue;
  // Steady-state churn with at most 4 outstanding events: the pool must
  // plateau at the peak working set, not grow with total traffic.
  double t = 0.0;
  for (int round = 0; round < 1000; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) queue.schedule(t + 1.0, i, 0);
    Event ev;
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.pop(ev));
    t = queue.now_s();
  }
  EXPECT_LE(queue.pool_slots(), 8u);
  EXPECT_EQ(queue.processed(), 4000u);
}

TEST(EventQueue, WrapsAroundManyCalendarLaps) {
  // 64 buckets x 250 us days: consecutive events 70 days apart lap the
  // calendar hundreds of times; order and clock must never slip.
  EventQueue queue;
  double t = 0.0;
  std::uint32_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    t += 70.0 * 250e-6;
    queue.schedule(t, seq++, 0);
  }
  Event ev;
  double last = 0.0;
  for (std::uint32_t want = 0; want < seq; ++want) {
    ASSERT_TRUE(queue.pop(ev));
    EXPECT_EQ(ev.node, want);
    EXPECT_GT(ev.time_s, last);
    last = ev.time_s;
  }
}

TEST(EventQueue, SparseJumpSkipsEmptyYears) {
  // A gap a whole lap cannot cover forces the sparse-region jump; the
  // far event must still fire (and in (time, seq) order).
  EventQueue queue;
  queue.schedule(1e-3, 1, 0);
  queue.schedule(1000.0, 3, 0);
  queue.schedule(1000.0, 2, 0);  // same instant: seq breaks the tie
  Event ev;
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 1u);
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 3u);
  ASSERT_TRUE(queue.pop(ev));
  EXPECT_EQ(ev.node, 2u);
  EXPECT_DOUBLE_EQ(queue.now_s(), 1000.0);
}

TEST(EventQueue, RetunesWidthForClusteredWorkloads) {
  // Thousands of live events packed into a handful of 250 us days: the
  // calendar must shrink its width rather than degrade to long sorted
  // scans — and the pop order must stay exactly (time, seq).
  EventQueue queue;
  const double initial_width = queue.bucket_width_s();
  util::Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 4000; ++i) {
    const double t = rng.uniform(0.0, 2e-3);
    times.push_back(t);
    queue.schedule(t, static_cast<std::uint32_t>(i), 0);
  }
  EXPECT_LT(queue.bucket_width_s(), initial_width);
  Event ev;
  double last = -1.0;
  std::uint64_t last_seq = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_TRUE(queue.pop(ev));
    if (ev.time_s == last) {
      EXPECT_GT(ev.seq, last_seq);  // FIFO among simultaneous events
    } else {
      EXPECT_GT(ev.time_s, last);
    }
    last = ev.time_s;
    last_seq = ev.seq;
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, StarScheduleKeepsInsertScansShort) {
  // The dense CSMA star's shape: 10,000 first events spread over 1 s
  // set the live span, while the work clusters in chains of 20
  // follow-ups under a millisecond apart (backoffs and airtimes). A day
  // tuned to the live span's mean gap (~200 us) holds ~20 chain events
  // and costs ~10 scan steps an insert; tuned to the recent pop gap it
  // holds about one.
  EventQueue queue;
  util::Rng rng(11);
  for (std::uint32_t i = 0; i < 10000; ++i) {
    queue.schedule(rng.uniform(0.0, 1.0), i, 0);
  }
  std::uint64_t inserts = 10000;
  const std::uint64_t pops = pop_all_in_order(queue, [&](const Event& ev) {
    if (ev.a == 20) return;
    queue.schedule(queue.now_s() + rng.uniform(0.0, 1e-3), ev.node, 0,
                   ev.a + 1);
    ++inserts;
  });
  EXPECT_EQ(inserts, 210000u);
  EXPECT_EQ(pops, inserts);
  EXPECT_LE(queue.scan_steps(), 2 * inserts);
}

TEST(EventQueue, SimultaneousBurstCannotCollapseTheDay) {
  // The burst's pops leave the clock where it is, so they say nothing
  // about the gap between events. Counted as zero gaps, they would
  // shrink the day to the 1e15-day floor (~1e-13 s), and each tail pop
  // would then walk the whole calendar.
  EXPECT_GE(burst_then_sparse_tail(0.0), 1e-5);
}

TEST(EventQueue, PicosecondBurstCannotCollapseTheDay) {
  // Here every burst pop advances the clock, by 1 ps. The re-tune never
  // goes below 1/64 of the live span's mean gap (here ~1.5e-4 s), so
  // the day stays wide enough for the sparse tail behind the burst.
  EXPECT_GE(burst_then_sparse_tail(1e-12), 1e-5);
}

TEST(CsmaCa, BeResetSemanticsMatchTheSubMacLifecycle) {
  // Audit pin for the 802.15.4 NB/BE lifecycle (see csma.hpp): begin()
  // is the per-access-attempt reset, called by the MAC for every new
  // frame AND every ARQ retransmission. BE rises only through busy()
  // *within* one attempt, and a clear CCA mid-attempt does NOT re-lower
  // it — the attempt is over once the frame hits the air, and the next
  // attempt's begin() is what restores kMinBe.
  CsmaCa csma;
  csma.begin();
  EXPECT_EQ(csma.be(), kMinBe);
  EXPECT_EQ(csma.backoffs(), 0u);
  // Busy CCAs raise BE toward the cap, one budget unit each.
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), kMinBe + 1);
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), kMaxBe);  // capped at macMaxBE
  EXPECT_TRUE(csma.busy());
  EXPECT_EQ(csma.be(), kMaxBe);  // stays capped
  EXPECT_EQ(csma.backoffs(), kMaxBackoffs);
  // The frame now clears CCA and transmits: nothing in the state machine
  // moves, and the *next* access attempt (new frame or retransmission)
  // starts over from kMinBe via begin().
  csma.begin();
  EXPECT_EQ(csma.be(), kMinBe);
  EXPECT_EQ(csma.backoffs(), 0u);
}

TEST(CsmaCa, BackoffsGrowWithBusyChannelAndExhaust) {
  CsmaCa csma;
  util::Rng rng(1);
  csma.begin();
  // BE starts at kMinBe = 3: backoff in [0, 7] unit periods.
  const double unit = kUnitBackoffS;
  for (int i = 0; i < 64; ++i) {
    const double b = csma.backoff_s(rng);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 7.0 * unit);
  }
  // Each busy raises BE toward kMaxBe = 5 and burns one of 4 retries.
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  EXPECT_TRUE(csma.busy());
  bool saw_wide = false;
  for (int i = 0; i < 64; ++i) {
    const double b = csma.backoff_s(rng);
    EXPECT_LE(b, 31.0 * unit);
    if (b > 7.0 * unit) saw_wide = true;
  }
  EXPECT_TRUE(saw_wide);  // BE really did rise past kMinBe
  EXPECT_TRUE(csma.busy());   // 4th busy: the budget's last retry
  EXPECT_FALSE(csma.busy());  // budget exhausted: access failure
  csma.begin();  // re-arming restores the budget
  EXPECT_TRUE(csma.busy());
}

}  // namespace
}  // namespace braidio::net
