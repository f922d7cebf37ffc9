// analyzer-path: src/core/fixture_mobility_replan.cpp
// Known-bad fixture: a replan loop with its own direction branch over
// Eq. 1. The suppressed call shows the reason-carrying escape hatch;
// the mention in this comment, OffloadPlanner::plan(...), is not code.

#include "plan/offload.hpp"

namespace braidio::core {

using plan::OffloadPlanner;

inline double fixture_replan_bits(
    const std::vector<ModeCandidate>& candidates, double e1_joules,
    double e2_joules) {
  // expect: A8-one-planner
  const auto plan = OffloadPlanner::plan(candidates, e1_joules, e2_joules);
  // analyzer: one-planner(fixture demonstrates a documented waiver)
  const auto raw = OffloadPlanner::plan(candidates, e2_joules, e1_joules);
  return plan.bits_until_depletion(e1_joules, e2_joules) +
         raw.bits_until_depletion(e2_joules, e1_joules);
}

}  // namespace braidio::core
