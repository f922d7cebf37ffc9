#include "sim/sweep_runner.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/parallel_for.hpp"
#include "util/contract.hpp"

namespace braidio::sim {

unsigned threads_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--threads" && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(10);
    } else {
      continue;
    }
    if (const unsigned count = parse_thread_count(value)) return count;
  }
  return 0;
}

std::string trace_out_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--trace-out=", 0) == 0) return arg.substr(12);
  }
  return "";
}

ResultTable SweepRunner::run(const Scenario& scenario) const {
  // analyzer: wallclock(wall_seconds is perf telemetry, not results)
  using clock = std::chrono::steady_clock;

  ResultTable table(scenario, options_.seed);
  const std::size_t n = scenario.point_count();
  table.records_.resize(n);
  table.metrics_.resize(n);

  table.threads_used_ =
      options_.threads == 0 ? default_thread_count() : options_.threads;

  // One registry per grid point: whatever point i's evaluation posts to
  // the obs hooks lands in slot i, and the slots are merged in flat-index
  // order below — the merged registry is byte-identical for any thread
  // count, the same discipline as the per-point RNG streams.
  std::vector<obs::MetricsRegistry> point_metrics(n);
  // Same discipline for energy attribution: one profile per grid point,
  // merged in flat-index order.
  std::vector<obs::EnergyProfile> point_profiles(n);

  const auto run_start = clock::now();
  parallel_for(table.threads_used_, n, [&](std::size_t i) {
    SweepPoint point(i, scenario.coords_of(i), options_.seed);
    BRAIDIO_TRACE_EVENT(obs::EventType::SweepPointStart,
                        table.scenario_name().c_str(), obs::no_sim_time(),
                        static_cast<double>(i));
    const auto t0 = clock::now();
    try {
      obs::ScopedMetrics scoped(&point_metrics[i]);
      obs::ScopedEnergyProfile scoped_profile(&point_profiles[i]);
      table.records_[i] = scenario.evaluate(point);
      obs::count(obs::Counter::SweepPoints);
    } catch (...) {
      // Outside the scoped registry: the failure survives in the
      // process-global registry even though the rethrow (from
      // parallel_for) discards the table.
      obs::count(obs::Counter::SweepFailures);
      BRAIDIO_TRACE_EVENT(obs::EventType::SweepPointEnd, "failed",
                          obs::no_sim_time(), static_cast<double>(i));
      throw;
    }
    table.metrics_[i].wall_seconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    BRAIDIO_TRACE_EVENT(obs::EventType::SweepPointEnd,
                        table.scenario_name().c_str(), obs::no_sim_time(),
                        table.metrics_[i].wall_seconds);
  });
  table.total_wall_seconds_ =
      std::chrono::duration<double>(clock::now() - run_start).count();

  for (std::size_t i = 0; i < n; ++i) {
    table.metrics_registry_.merge(point_metrics[i]);
    table.energy_profile_.merge(point_profiles[i]);
  }

  BRAIDIO_ENSURE(table.records_.size() == n, "rows", table.records_.size());
  return table;
}

}  // namespace braidio::sim
