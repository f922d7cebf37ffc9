// Deterministic fault-burst trains for the degradation, fault and
// telemetry tests. Test support (braidio_test_support), not part of the
// library: every program reads its faults from a `--faults=FILE` script
// (FaultTimeline::parse).
#pragma once

#include "sim/faults/fault_timeline.hpp"

namespace braidio::sim::faults {

/// `count` windows of `kind`, the first starting at `first_start_s`, one
/// every `period_s`, each `duration_s` long with the given
/// magnitude/param. No RNG: fault *rate* sweeps stay strictly ordered,
/// which the degradation suite's monotonicity invariants rely on.
FaultTimeline periodic_bursts(FaultKind kind, unsigned count,
                              double first_start_s, double period_s,
                              double duration_s, double magnitude,
                              double param = 0.0);

}  // namespace braidio::sim::faults
