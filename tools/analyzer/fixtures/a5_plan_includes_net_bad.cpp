// analyzer-path: src/plan/fixture_plan_reads_topology.cpp
// Known-bad fixture: the planner depending on the many-node simulator.
// net/ takes its hop candidates from plan/; a planner that included
// net/ headers would make the two libraries need each other.

// expect: A5-layering
#include "net/topology.hpp"

// expect: A5-layering
#include "core/offload.hpp"

// A commented-out include is not a dependency — no finding:
// #include "net/network_sim.hpp"

#include "hal/backend.hpp"

namespace braidio::plan {

inline int fixture_hop_count() { return 2; }

}  // namespace braidio::plan
