// Asymmetric IoT hub: several coin-cell sensors report to one mains-class
// hub. Exercises the protocol stack under link dynamics: per-sensor
// distances, block fading, and an injected shadowing event that forces the
// Sec. 4.2 fallback to the active mode.
//
// Ported onto the sim engine: one Scenario axis = sensor, each sensor's
// 800-slot link simulation evaluated independently (and concurrently with
// `--threads N`); results land in deterministic sensor order.
#include <iostream>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "hal/radio.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Example",
                        "Asymmetric IoT: coin-cell sensors -> mains hub");

  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes(backend);

  struct Sensor {
    std::string name;
    double battery_wh;
    double distance_m;
    bool shadowed;  // inject 12 dB of loss (someone stood in the way)
  };
  const std::vector<Sensor> sensors = {
      {"door-sensor", 0.7, 0.6, false},
      {"window-sensor", 0.7, 1.4, false},
      {"motion-sensor", 0.7, 2.1, false},
      {"garage-sensor", 0.7, 1.0, true},
  };

  std::vector<std::string> names;
  for (const auto& s : sensors) names.push_back(s.name);

  sim::Scenario scenario(
      "asymmetric_iot", {{"sensor", names}},
      {"d [m]", "regime", "delivered", "fallbacks", "sensor J",
       "plan executed"},
      [&](sim::SweepPoint& p) {
        const auto& s = sensors[p.axis_index(0)];
        // Each point builds its own radios: BraidedLink mutates both ends,
        // so no state is shared between concurrent evaluations.
        hal::StandardRadio node(s.name, 1, util::WattHours(s.battery_wh),
                                backend.caps());
        hal::StandardRadio hub("hub", 2, util::WattHours(99.5),
                               backend.caps());
        const double e0 = node.battery().remaining_joules();

        core::BraidedLinkConfig cfg;
        cfg.distance_m = s.distance_m;
        cfg.payload_bytes = 24;  // sensor report
        cfg.packets_per_slot = 8;
        cfg.block_fading = true;
        cfg.extra_loss_db = s.shadowed ? 12.0 : 0.0;
        cfg.seed = p.seed();

        core::BraidedLink link(node, hub, regimes, cfg);
        const auto stats = link.run(800);

        sim::RunRecord record;
        record.cells = {
            util::format_fixed(s.distance_m, 1),
            to_string(regimes.regime(s.distance_m)),
            std::to_string(stats.data_packets_delivered) + "/" +
                std::to_string(stats.data_packets_offered),
            std::to_string(stats.fallbacks),
            util::format_scientific(
                e0 - node.battery().remaining_joules(), 3),
            stats.last_plan};
        return record;
      });

  sim::SweepOptions options;
  options.threads = sim::threads_from_cli(argc, argv);
  const auto out = sim::SweepRunner(options).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("asymmetric_iot", out);

  report.note("All sensors are backscatter-dominant (the hub holds the "
              "carrier); the shadowed garage link repeatedly falls back to "
              "the active mode and replans, trading energy for "
              "reliability exactly as Sec. 4.2 prescribes.");
  return 0;
}
