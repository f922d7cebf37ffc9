// Figure 15: performance gain of Braidio over Bluetooth when the device on
// the column transmits continuously to the device on the row (both start
// full; transfer ends when either battery dies; distance < 1 m so all
// modes run at peak bitrate).
#include <algorithm>
#include <iostream>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "bench_matrix_common.hpp"
#include "core/lifetime_sim.hpp"
#include "obs/obs.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(
      std::cout, "Figure 15",
      "Total-bits gain of Braidio over Bluetooth (unidirectional)");

  core::LifetimeSimulator sim(backends::braidio_backend());
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;

  // Collect per-mode energy attribution for the telemetry record; the
  // per-point profiles merge in flat-index order, so BENCH_*.json stays
  // deterministic for any --threads value.
  obs::set_attribution_enabled(true);

  // Representative delivered bits/J for the telemetry record: the
  // phone -> watch braid, total bits over both batteries.
  const auto e1 = util::to_joules(
      util::WattHours(energy::find_device("iPhone 6S")->battery_wh));
  const auto e2 = util::to_joules(
      util::WattHours(energy::find_device("Apple Watch")->battery_wh));
  const double bits_per_joule =
      sim.braidio(e1, e2, cfg).bits / (e1.value() + e2.value());

  const auto results = bench::run_gain_matrix(
      report, "fig15_gain_matrix", bench::sweep_options(argc, argv),
      [&](const energy::DeviceSpec& tx, const energy::DeviceSpec& rx) {
        return sim.gain_vs_bluetooth(tx, rx, cfg);
      },
      bits_per_joule);

  double diag_min = 1e300, diag_max = -1e300, best = 0.0;
  std::string best_pair;
  bench::for_each_pair(results, [&](const energy::DeviceSpec& tx,
                                    const energy::DeviceSpec& rx, double g) {
    if (tx.name == rx.name) {
      diag_min = std::min(diag_min, g);
      diag_max = std::max(diag_max, g);
    }
    if (g > best) {
      best = g;
      best_pair = tx.name + " -> " + rx.name;
    }
  });

  report.check("diagonal (1:1 energy) gain", "1.43x",
               util::format_fixed(diag_min, 2) + "x - " +
                   util::format_fixed(diag_max, 2) + "x");
  report.check("maximum gain", "397x (FuelBand <-> MBP15 corner)",
               util::format_fixed(best, 0) + "x (" + best_pair + ")");
  report.check("Pivothead -> laptop (camera streaming)", "~35x",
               util::format_fixed(
                   sim.gain_vs_bluetooth(
                       *energy::find_device("Pivothead"),
                       *energy::find_device("MacBook Pro 15"), cfg),
                   1) +
                   "x");
  report.note("Gains grow with battery asymmetry: small->large leans on "
              "backscatter, large->small on the passive receiver.");
  return 0;
}
