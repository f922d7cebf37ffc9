// Forwarding header: the planner lives in plan/offload.hpp. The
// repository benchmark's planner probe (perfbench/src/probes.cpp) still
// includes this file and calls core::OffloadPlanner, and perfbench
// changes only together with the benchmark definition. This header goes
// when that probe moves to plan/; nothing else includes it.
#pragma once

#include "plan/offload.hpp"

namespace braidio::core {

using plan::OffloadPlanner;

}  // namespace braidio::core
