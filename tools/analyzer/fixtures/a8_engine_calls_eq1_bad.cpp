// analyzer-path: src/core/fixture_engine_plan.cpp
// Known-bad fixture: an engine that runs raw Eq. 1 instead of
// plan::plan_link. Its plans skip the Table 5 switch amortization and
// the best-exclusive-mode fallback, so it moves a different number of
// bits than the lifetime model on the same link.

#include "plan/offload.hpp"

namespace braidio::core {

inline plan::OffloadPlan fixture_engine_plan(
    const std::vector<ModeCandidate>& candidates, double e1_joules,
    double e2_joules, bool bidirectional) {
  if (bidirectional) {
    // expect: A8-one-planner
    return plan::OffloadPlanner::plan_bidirectional(candidates, e1_joules,
                                                    e2_joules);
  }
  // expect: A8-one-planner
  return plan::OffloadPlanner::plan(candidates, e1_joules, e2_joules);
}

// The capability intersection and the deadline planner are not Eq. 1's
// two entry points — no finding.
inline plan::OffloadPlan fixture_deadline_plan(
    const std::vector<ModeCandidate>& candidates, double e1_joules,
    double e2_joules) {
  return plan::OffloadPlanner::plan_with_min_throughput(
      candidates, e1_joules, e2_joules, 1e5);
}

}  // namespace braidio::core
