// Figure 18: performance gain of Braidio over Bluetooth vs distance for
// three device pairs, both transfer directions, swept on the sim engine.
#include <iostream>
#include <vector>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "core/lifetime_sim.hpp"
#include "obs/obs.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 18",
                        "Gain over Bluetooth vs distance");

  // Attribute every ledger charge during the sweep so the telemetry
  // record carries the per-mode energy split (merged deterministically).
  obs::set_attribution_enabled(true);

  core::LifetimeSimulator sim(backends::braidio_backend());

  const auto phone = *energy::find_device("iPhone 6S");
  const auto watch = *energy::find_device("Apple Watch");
  const auto laptop = *energy::find_device("Surface Book");
  const auto nexus = *energy::find_device("Nexus 6P");
  const auto band = *energy::find_device("Nike Fuel Band");

  auto gain = [&](const energy::DeviceSpec& tx, const energy::DeviceSpec& rx,
                  double d) {
    core::LifetimeConfig cfg;
    cfg.distance_m = d;
    return util::format_fixed(sim.gain_vs_bluetooth(tx, rx, cfg), 2);
  };

  std::vector<double> distances;
  for (double d = 0.3; d <= 6.01; d += 0.3) distances.push_back(d);

  sim::Scenario scenario(
      "fig18_distance", {sim::Axis::numeric("d [m]", distances, 1)},
      {"iP6S->Watch", "Watch->iP6S", "Surface->N6P", "N6P->Surface",
       "iP6S->FuelBand", "FuelBand->iP6S"},
      [&](sim::SweepPoint& p) {
        const double d = distances[p.axis_index(0)];
        sim::RunRecord record;
        record.cells = {gain(phone, watch, d),  gain(watch, phone, d),
                        gain(laptop, nexus, d), gain(nexus, laptop, d),
                        gain(phone, band, d),   gain(band, phone, d)};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("fig18_distance", out);
  report.export_json("fig18_distance", out);

  core::LifetimeConfig near_cfg;
  near_cfg.distance_m = 0.3;

  // Representative delivered bits/J: the close-range phone -> watch braid.
  {
    const auto e1 = util::to_joules(util::WattHours(phone.battery_wh));
    const auto e2 = util::to_joules(util::WattHours(watch.battery_wh));
    const double bits_per_joule =
        sim.braidio(e1, e2, near_cfg).bits / (e1.value() + e2.value());
    bench::export_bench_telemetry(report, "fig18_distance", out,
                                  bits_per_joule);
  }

  core::LifetimeConfig far_cfg;
  far_cfg.distance_m = 5.7;
  report.check("short range", "strong gains (asymmetric modes viable)",
               "iP6S->FuelBand " +
                   util::format_fixed(
                       sim.gain_vs_bluetooth(phone, band, near_cfg), 1) +
                   "x at 0.3 m");
  report.check("past 2.4 m", "only large->small keeps offloading",
               "Watch->iP6S " + gain(watch, phone, 3.0) +
                   "x vs iP6S->Watch " + gain(phone, watch, 3.0) +
                   "x at 3.0 m");
  report.check("past 5.1 m", "identical to Bluetooth (1.0x)",
               util::format_fixed(
                   sim.gain_vs_bluetooth(phone, watch, far_cfg), 2) +
                   "x");
  return 0;
}
