// Figure 17: gain of Braidio over Bluetooth for bi-directional transfers
// (equal data both ways, roles alternate).
#include <algorithm>
#include <iostream>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "bench_matrix_common.hpp"
#include "core/lifetime_sim.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 17",
                        "Braidio vs Bluetooth, bi-directional data "
                        "transfer");

  core::LifetimeSimulator sim(backends::braidio_backend());
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  cfg.bidirectional = true;

  const auto results = bench::run_gain_matrix(
      report, "fig17_bidirectional", bench::sweep_options(argc, argv),
      [&](const energy::DeviceSpec& tx, const energy::DeviceSpec& rx) {
        return sim.gain_vs_bluetooth(tx, rx, cfg);
      });

  double best = 0.0, diag = 0.0;
  std::string best_pair;
  bench::for_each_pair(results, [&](const energy::DeviceSpec& tx,
                                    const energy::DeviceSpec& rx, double g) {
    if (g > best) {
      best = g;
      best_pair = tx.name + " <-> " + rx.name;
    }
    if (tx.name == "Nike Fuel Band" && rx.name == "Nike Fuel Band") {
      diag = g;
    }
  });

  report.check("maximum gain", "368x (corner)",
               util::format_fixed(best, 0) + "x (" + best_pair + ")");
  report.check("diagonal", "1.43x", util::format_fixed(diag, 2) + "x");
  report.note("The energy-poor device backscatters when sending and uses "
              "the envelope detector when receiving, so large asymmetric "
              "gains survive role alternation.");
  return 0;
}
