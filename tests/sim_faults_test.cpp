#include "sim/faults/impairment.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "sim/faults/fault_timeline.hpp"

namespace braidio::sim::faults {
namespace {

TEST(FaultTimeline, ValidatesAndSortsEvents) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::Shadowing, 5.0, 1.0, 10.0, 0.0, kTargetBoth});
  events.push_back({FaultKind::CarrierDropout, 1.0, 0.5, 0.0, 0.0,
                    kTargetBoth});
  const FaultTimeline timeline{events};
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.events()[0].kind, FaultKind::CarrierDropout);
  EXPECT_EQ(timeline.events()[1].kind, FaultKind::Shadowing);
}

TEST(FaultTimeline, RejectsBadEvents) {
  // Windowed events need a positive duration.
  EXPECT_THROW(FaultTimeline({{FaultKind::Shadowing, 0.0, 0.0, 10.0, 0.0,
                               kTargetBoth}}),
               std::invalid_argument);
  // Negative start time.
  EXPECT_THROW(FaultTimeline({{FaultKind::CarrierDropout, -1.0, 1.0, 0.0,
                               0.0, kTargetBoth}}),
               std::invalid_argument);
  // Shadowing loss must be >= 0 dB.
  EXPECT_THROW(FaultTimeline({{FaultKind::Shadowing, 0.0, 1.0, -3.0, 0.0,
                               kTargetBoth}}),
               std::invalid_argument);
  // Distance jumps need a positive distance.
  EXPECT_THROW(FaultTimeline({{FaultKind::DistanceJump, 0.0, 0.0, 0.0, 0.0,
                               kTargetBoth}}),
               std::invalid_argument);
  // Brownouts need a valid target.
  EXPECT_THROW(FaultTimeline({{FaultKind::Brownout, 0.0, 0.0, 1.0, 0.0,
                               7}}),
               std::invalid_argument);
}

TEST(FaultTimeline, StartingInUsesHalfOpenInterval) {
  const auto timeline = FaultTimeline::periodic_bursts(
      FaultKind::CarrierDropout, 3, 1.0, 1.0, 0.25, 0.0);
  // (t0, t1]: the edge at t = 1 belongs to the interval ending at 1.
  EXPECT_EQ(timeline.starting_in(0.0, 1.0).size(), 1u);
  EXPECT_EQ(timeline.starting_in(1.0, 3.0).size(), 2u);
  EXPECT_TRUE(timeline.starting_in(3.0, 10.0).empty());
  EXPECT_TRUE(timeline.starting_in(0.0, 0.5).empty());
}

TEST(FaultTimeline, ParsesTheTextFormat) {
  std::istringstream in(
      "# demo schedule\n"
      "shadowing 1.0 2.0 12\n"
      "interferer 2.0 1.0 -45 250e3\n"
      "dropout 4.0 0.5\n"
      "fade 5.0 1.0 8 2e-3\n"
      "distance 6.0 1.5\n"
      "brownout 7.0 0.25 b\n");
  std::string error;
  const auto timeline = FaultTimeline::parse(in, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  ASSERT_EQ(timeline->size(), 6u);
  EXPECT_EQ(timeline->events()[0].kind, FaultKind::Shadowing);
  EXPECT_EQ(timeline->events()[1].kind, FaultKind::Interferer);
  EXPECT_DOUBLE_EQ(timeline->events()[1].param, 250e3);
  EXPECT_EQ(timeline->events()[5].kind, FaultKind::Brownout);
  EXPECT_EQ(timeline->events()[5].target, kTargetB);
}

TEST(FaultTimeline, ParseReportsLineNumbersOnErrors) {
  std::istringstream in("dropout 0 1\nshadowing nonsense\n");
  std::string error;
  const auto timeline = FaultTimeline::parse(in, &error);
  EXPECT_FALSE(timeline.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(FaultTimeline, PeriodicBurstsAreDeterministicAndOrdered) {
  const auto a = FaultTimeline::periodic_bursts(FaultKind::Shadowing, 4,
                                                0.5, 2.0, 0.1, 20.0);
  const auto b = FaultTimeline::periodic_bursts(FaultKind::Shadowing, 4,
                                                0.5, 2.0, 0.1, 20.0);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].start_s, b.events()[i].start_s);
    EXPECT_DOUBLE_EQ(a.events()[i].start_s, 0.5 + 2.0 * double(i));
  }
}

TEST(ImpairmentSchedule, SuperposesOverlappingWindows) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::Shadowing, 1.0, 4.0, 10.0, 0.0, kTargetBoth});
  events.push_back({FaultKind::Shadowing, 2.0, 1.0, 5.0, 0.0, kTargetBoth});
  events.push_back({FaultKind::CarrierDropout, 4.0, 0.5, 0.0, 0.0,
                    kTargetBoth});
  const ImpairmentSchedule schedule{FaultTimeline{events}};
  EXPECT_DOUBLE_EQ(schedule.state_at(0.5).extra_loss_db, 0.0);
  EXPECT_DOUBLE_EQ(schedule.state_at(1.5).extra_loss_db, 10.0);
  EXPECT_DOUBLE_EQ(schedule.state_at(2.5).extra_loss_db, 15.0);
  EXPECT_DOUBLE_EQ(schedule.state_at(3.5).extra_loss_db, 10.0);
  EXPECT_FALSE(schedule.state_at(3.5).carrier_dropout);
  EXPECT_TRUE(schedule.state_at(4.25).carrier_dropout);
  EXPECT_FALSE(schedule.state_at(10.0).impaired());
}

TEST(ImpairmentSchedule, FadeBurstDeepestWindowGoverns) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::FadeBurst, 0.0, 2.0, 6.0, 1e-3, kTargetBoth});
  events.push_back({FaultKind::FadeBurst, 1.0, 2.0, 12.0, 4e-3,
                    kTargetBoth});
  const ImpairmentSchedule schedule{FaultTimeline{events}};
  const auto early = schedule.state_at(0.5);
  EXPECT_TRUE(early.fade_active);
  EXPECT_DOUBLE_EQ(early.fade_depth_db, 6.0);
  const auto overlap = schedule.state_at(1.5);
  EXPECT_DOUBLE_EQ(overlap.fade_depth_db, 12.0);
  EXPECT_DOUBLE_EQ(overlap.fade_coherence_s, 4e-3);
}

TEST(ImpairmentSchedule, LatestDistanceJumpWins) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::DistanceJump, 1.0, 0.0, 1.5, 0.0,
                    kTargetBoth});
  events.push_back({FaultKind::DistanceJump, 3.0, 0.0, 0.7, 0.0,
                    kTargetBoth});
  const ImpairmentSchedule schedule{FaultTimeline{events}};
  EXPECT_FALSE(schedule.state_at(0.5).distance_m.has_value());
  EXPECT_DOUBLE_EQ(schedule.state_at(2.0).distance_m.value(), 1.5);
  EXPECT_DOUBLE_EQ(schedule.state_at(5.0).distance_m.value(), 0.7);
}

TEST(ImpairmentSchedule, BrownoutAccountingByTargetAndWindow) {
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::Brownout, 1.0, 0.0, 0.5, 0.0, kTargetA});
  events.push_back({FaultKind::Brownout, 2.0, 0.0, 0.25, 0.0, kTargetB});
  events.push_back({FaultKind::Brownout, 3.0, 0.0, 0.1, 0.0, kTargetBoth});
  const ImpairmentSchedule schedule{FaultTimeline{events}};
  EXPECT_DOUBLE_EQ(schedule.brownout_joules(0.0, 5.0, kTargetA), 0.6);
  EXPECT_DOUBLE_EQ(schedule.brownout_joules(0.0, 5.0, kTargetB), 0.35);
  // Half-open window: the edge at t = 1 is consumed by the step ending
  // there, not the one starting there.
  EXPECT_DOUBLE_EQ(schedule.brownout_joules(0.0, 1.0, kTargetA), 0.5);
  EXPECT_DOUBLE_EQ(schedule.brownout_joules(1.0, 5.0, kTargetA), 0.1);
}

TEST(ImpairmentSchedule, InterfererPenaltyGrowsWithPower) {
  FaultEvent weak{FaultKind::Interferer, 0.0, 1.0, -70.0, 100e3,
                  kTargetBoth};
  FaultEvent strong{FaultKind::Interferer, 0.0, 1.0, -40.0, 100e3,
                    kTargetBoth};
  const ImpairmentSchedule schedule{
      FaultTimeline{{weak, strong}}};
  const double weak_db = schedule.interferer_penalty_db(weak);
  const double strong_db = schedule.interferer_penalty_db(strong);
  EXPECT_GE(weak_db, 0.0);
  EXPECT_GT(strong_db, weak_db);
  // And the schedule's superposed loss reflects it while active.
  EXPECT_NEAR(schedule.state_at(0.5).extra_loss_db, weak_db + strong_db,
              1e-12);
}

// ---------- node-scoped events (`@<id>`, network simulator) ----------

TEST(FaultTimeline, ParsesNodeScopes) {
  std::istringstream in(
      "shadowing 1 2 12 @3\n"
      "dropout 0 5 @1\n"
      "interferer 2 1 -45 250e3 @0\n"
      "brownout 7 0.25 b @4\n"
      "fade 5 1 8 @2\n"
      "distance 6 1.5\n");
  std::string error;
  const auto timeline = FaultTimeline::parse(in, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  ASSERT_EQ(timeline->size(), 6u);
  // Sorted by start: dropout@1, shadowing@3, interferer@0, fade@2,
  // distance (broadcast), brownout b@4.
  EXPECT_EQ(timeline->events()[0].node, 1);
  EXPECT_EQ(timeline->events()[1].node, 3);
  EXPECT_EQ(timeline->events()[2].node, 0);
  EXPECT_EQ(timeline->events()[3].node, 2);
  EXPECT_EQ(timeline->events()[4].node, kNodeBroadcast);
  EXPECT_EQ(timeline->events()[5].node, 4);
  EXPECT_EQ(timeline->events()[5].target, kTargetB);  // composes with @
}

TEST(FaultTimeline, RejectsBadNodeScopes) {
  const char* bad[] = {
      "dropout 0 1 @x\n",       // non-numeric id
      "dropout 0 1 @-2\n",      // negative id
      "dropout 0 1 @\n",        // empty id
      "dropout 0 1 @1 junk\n",  // trailing tokens after the scope
      "dropout 0 1 @1x\n",      // junk glued to the id
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    std::string error;
    EXPECT_FALSE(FaultTimeline::parse(in, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultTimeline, RejectsAnOptionalFieldThatDoesNotParse) {
  // A token in the optional slot that the number read consumes and fails
  // on (a double overflow) is an error, not the kind's default.
  for (const char* text :
       {"interferer 0 10 -20 1e999\n", "interferer 0 10 -20 -1e999\n",
        "fade 0 1 10 1e999\n", "fade 0 1 10 -1e999 @2\n",
        "shadowing 0 1 6 1e999\n"}) {
    std::istringstream in(std::string("# header\n") + text);
    std::string error;
    EXPECT_FALSE(FaultTimeline::parse(in, &error).has_value()) << text;
    EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << text << error;
  }
  // In-range values still parse, with or without a scope after them, and
  // an absent field still takes the default.
  std::istringstream in(
      "interferer 0 10 -20 100e3\n"
      "interferer 1 10 -20 250e3 @2\n"
      "fade 2 1 10 2e-3 @3\n"
      "interferer 3 10 -20 @1\n"
      "fade 4 1 10\n");
  std::string error;
  const auto timeline = FaultTimeline::parse(in, &error);
  ASSERT_TRUE(timeline.has_value()) << error;
  const auto& events = timeline->events();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].param, 100e3);
  EXPECT_EQ(events[0].node, kNodeBroadcast);
  EXPECT_EQ(events[1].param, 250e3);
  EXPECT_EQ(events[1].node, 2);
  EXPECT_EQ(events[2].param, 2e-3);
  EXPECT_EQ(events[2].node, 3);
  EXPECT_EQ(events[3].param, 100e3);
  EXPECT_EQ(events[3].node, 1);
  EXPECT_EQ(events[4].param, 5e-3);
}

TEST(ImpairmentSchedule, NodeScopedQueryFiltersByTarget) {
  std::vector<FaultEvent> events;
  // Broadcast shadowing everyone sees, plus a dropout only node 2 sees.
  events.push_back({FaultKind::Shadowing, 0.0, 10.0, 6.0, 0.0, kTargetBoth});
  FaultEvent dropout{FaultKind::CarrierDropout, 0.0, 10.0, 0.0, 0.0,
                     kTargetBoth};
  dropout.node = 2;
  events.push_back(dropout);
  const ImpairmentSchedule schedule{FaultTimeline{std::move(events)}};

  const ImpairmentState at_node2 = schedule.state_at(5.0, 2);
  EXPECT_TRUE(at_node2.carrier_dropout);
  EXPECT_DOUBLE_EQ(at_node2.extra_loss_db, 6.0);

  const ImpairmentState at_node1 = schedule.state_at(5.0, 1);
  EXPECT_FALSE(at_node1.carrier_dropout);  // targeted: invisible elsewhere
  EXPECT_DOUBLE_EQ(at_node1.extra_loss_db, 6.0);  // broadcast: visible

  // The legacy single-link view applies every event regardless of scope.
  const ImpairmentState legacy = schedule.state_at(5.0);
  EXPECT_TRUE(legacy.carrier_dropout);
  EXPECT_DOUBLE_EQ(legacy.extra_loss_db, 6.0);
}

TEST(ImpairmentSchedule, BroadcastTimelineMatchesLegacyView) {
  // With no node-scoped events the two overloads must agree everywhere.
  std::vector<FaultEvent> events;
  events.push_back({FaultKind::Shadowing, 1.0, 2.0, 9.0, 0.0, kTargetBoth});
  events.push_back(
      {FaultKind::CarrierDropout, 4.0, 0.5, 0.0, 0.0, kTargetBoth});
  const ImpairmentSchedule schedule{FaultTimeline{std::move(events)}};
  for (const double t : {0.5, 1.5, 3.5, 4.25, 6.0}) {
    for (const int node : {0, 1, 7}) {
      const ImpairmentState scoped = schedule.state_at(t, node);
      const ImpairmentState legacy = schedule.state_at(t);
      EXPECT_EQ(scoped.carrier_dropout, legacy.carrier_dropout);
      EXPECT_DOUBLE_EQ(scoped.extra_loss_db, legacy.extra_loss_db);
      EXPECT_EQ(scoped.fade_active, legacy.fade_active);
    }
  }
}

}  // namespace
}  // namespace braidio::sim::faults
