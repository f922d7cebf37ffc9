// Engine acceptance bench: the Fig. 15 device matrix and a Fig. 12-style
// Monte-Carlo BER sweep, run serially and in parallel.
//
// Verifies at runtime that the parallel ResultTable (CSV and JSON) is
// byte-identical to the serial run, then reports the wall-clock speedup.
// Run with `--threads N` to choose the parallel width (default: hardware
// concurrency / BRAIDIO_THREADS).
#include <iostream>
#include <vector>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "bench_matrix_common.hpp"
#include "core/lifetime_sim.hpp"
#include "phy/waveform.hpp"
#include "sim/parallel_for.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

namespace {

using namespace braidio;

/// Run `scenario` at 1 thread and at `threads`, check data equality, and
/// report the speedup.
void compare(sim::RunReport& report, const sim::Scenario& scenario,
             unsigned threads) {
  sim::SweepOptions serial_opts;
  serial_opts.threads = 1;
  sim::SweepOptions parallel_opts;
  parallel_opts.threads = threads;

  const auto serial = sim::SweepRunner(serial_opts).run(scenario);
  const auto parallel = sim::SweepRunner(parallel_opts).run(scenario);

  const bool identical = serial.to_csv() == parallel.to_csv() &&
                         serial.to_json() == parallel.to_json();
  report.check(scenario.name() + ": parallel == serial (bytes)",
               "identical", identical ? "identical" : "MISMATCH");
  const double speedup = parallel.total_wall_seconds() > 0.0
                             ? serial.total_wall_seconds() /
                                   parallel.total_wall_seconds()
                             : 0.0;
  report.check(scenario.name() + ": speedup at " +
                   std::to_string(parallel.threads_used()) + " threads",
               ">1.5x on >=4 cores",
               util::format_fixed(speedup, 2) + "x (serial " +
                   util::format_fixed(serial.total_wall_seconds() * 1e3, 1) +
                   " ms, parallel " +
                   util::format_fixed(parallel.total_wall_seconds() * 1e3,
                                      1) +
                   " ms)");
  if (!identical) std::exit(EXIT_FAILURE);
}

}  // namespace

int main(int argc, char** argv) {
  sim::RunReport report(std::cout, "Engine",
                        "SweepRunner determinism and speedup");

  unsigned threads = sim::threads_from_cli(argc, argv);
  if (threads == 0) threads = sim::default_thread_count();
  report.note("parallel width: " + std::to_string(threads) + " threads");

  // Fig. 15 matrix through the engine (the acceptance-criterion workload).
  phy::LinkBudget budget;
  core::LifetimeSimulator lifetime(backends::braidio_backend());
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  compare(report,
          bench::gain_matrix_scenario(
              "fig15_matrix",
              [&](const energy::DeviceSpec& tx, const energy::DeviceSpec& rx) {
                return lifetime.gain_vs_bluetooth(tx, rx, cfg);
              }),
          threads);

  // Fig. 12-style Monte-Carlo BER sweep: heavier per point, stochastic —
  // exercises the per-point child-stream seeding rule.
  std::vector<double> distances;
  for (double d = 0.25; d <= 4.01; d += 0.25) distances.push_back(d);
  sim::Scenario mc_scenario(
      "fig12_mc", {sim::Axis::numeric("d [m]", distances, 2)}, {"mc ber"},
      [&](sim::SweepPoint& p) {
        phy::WaveformSimConfig mc;
        mc.mode = phy::LinkMode::Backscatter;
        mc.rate = phy::Bitrate::k100;
        mc.distance_m = distances[p.axis_index(0)];
        mc.bits = 30'000;
        mc.seed = p.seed();
        sim::RunRecord record;
        record.cells = {util::format_scientific(
            phy::simulate_waveform(budget, mc).measured_ber, 3)};
        return record;
      });
  compare(report, mc_scenario, threads);

  report.note("Each grid point draws from Rng::stream(seed, point_index), "
              "so scheduling never changes the data — only the wall "
              "clock.");
  return 0;
}
