// analyzer-path: src/plan/fixture_plan_reads_regimes.cpp
// Known-bad fixture: the planner reaching up into core/. Eq. 1 and
// plan_link sit below both engines and read only hal/ types; a planner
// that took a core::RegimeMap would put core/ back between the network
// simulator and the mode rule.

// expect: A5-layering
#include "core/regimes.hpp"

// No finding when the dependency is explicitly justified:
// analyzer: layering(fixture demonstrates a documented waiver)
#include "core/power_table.hpp"

// hal/, util/ and obs/ are what the planner links — no finding.
#include "hal/radio.hpp"
#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace braidio::plan {

inline int fixture_candidate_count() { return 9; }

}  // namespace braidio::plan
