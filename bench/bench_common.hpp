// Shared helpers for the reproduction bench binaries. Every bench prints
// through a `sim::RunReport` (see bench_fig15_gain_matrix.cpp for the
// pattern); these cover the sweep options and the telemetry export.
#pragma once

#include <limits>
#include <map>
#include <string>

#include "sim/bench_telemetry.hpp"
#include "sim/run_report.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

namespace braidio::bench {

/// Sweep options for a bench main(): `--threads N` wins, then the
/// BRAIDIO_THREADS env var, then hardware concurrency.
inline sim::SweepOptions sweep_options(int argc, char** argv) {
  sim::SweepOptions options;
  options.threads = sim::threads_from_cli(argc, argv);
  return options;
}

/// Distill a finished sweep into the schema-versioned BENCH_<name>.json
/// telemetry record and export it under BRAIDIO_CSV_DIR (plus the
/// attributed energy profile when one was collected). `bits_per_joule`
/// is the bench's representative delivered-bits-per-joule figure; leave
/// it NaN when the bench has no natural value. Returns false on write
/// failure.
inline bool export_bench_telemetry(
    sim::RunReport& report, const std::string& name,
    const sim::ResultTable& results,
    double bits_per_joule = std::numeric_limits<double>::quiet_NaN(),
    const std::map<std::string, double>& soft = {}) {
  auto telemetry = sim::BenchTelemetry::from_table(name, results);
  telemetry.delivered_bits_per_joule = bits_per_joule;
  telemetry.soft = soft;
  const bool profile_ok =
      report.export_profile(name, results.energy_profile());
  return report.export_bench(telemetry) && profile_ok;
}

}  // namespace braidio::bench
