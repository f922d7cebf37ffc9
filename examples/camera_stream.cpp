// Camera streaming: the Pivothead scenario from Sec. 6.3.
//
// A camera-glasses device streams 30 fps video to a laptop. The paper
// reports Braidio improves lifetime ~35x for this pair. We compute the
// sustainable streaming time on the camera's battery for Bluetooth, each
// single Braidio mode, and the braided plan — and show what happens as the
// wearer walks away from the laptop.
#include <iostream>
#include <string>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "energy/device_catalog.hpp"
#include "obs/obs.hpp"
#include "plan/offload.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;

  const hal::RadioBackend& backend = backends::braidio_backend();
  core::LifetimeSimulator sim(backend);
  core::RegimeMap regimes(backend);

  const auto camera = *energy::find_device("Pivothead");
  const auto laptop = *energy::find_device("MacBook Pro 15");
  const auto e_cam = util::to_joules(util::WattHours(camera.battery_wh));
  const auto e_lap = util::to_joules(util::WattHours(laptop.battery_wh));

  std::cout << "Pivothead (" << camera.battery_wh << " Wh) streaming to "
            << laptop.name << " (" << laptop.battery_wh << " Wh)\n\n";

  // Radio-subsystem streaming lifetime at 0.5 m, 1 Mbps effective.
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  util::TablePrinter out({"radio configuration", "total bits",
                          "hours @1 Mbps", "vs Bluetooth"});
  const double bt = sim.bluetooth_bits(e_cam, e_lap, false);
  auto row = [&](const std::string& name, double bits) {
    out.add_row({name, util::format_scientific(bits, 3),
                 util::format_fixed(bits / 1e6 / 3600.0, 1),
                 util::format_fixed(bits / bt, 2) + "x"});
  };
  row("Bluetooth", bt);
  for (const auto& c : regimes.available_best_rate(cfg.distance_m)) {
    row(std::string("Braidio, ") + c.label() + " only",
        plan::single_mode_bits(c, e_cam.value(), e_lap.value(), false));
  }
  const auto braid = sim.braidio(e_cam, e_lap, cfg);
  row("Braidio, braided (" + braid.plan.summary() + ")", braid.bits);
  out.print(std::cout);

  // Walking away: sustainable gain vs distance.
  std::cout << "\nWalking away from the laptop:\n";
  util::TablePrinter walk({"distance [m]", "regime", "gain vs Bluetooth",
                           "camera nJ/bit"});
  for (double d : {0.3, 0.9, 1.5, 2.1, 2.7, 3.6, 4.5, 5.4}) {
    core::LifetimeConfig at;
    at.distance_m = d;
    const auto outcome = sim.braidio(e_cam, e_lap, at);
    walk.add_row({util::format_fixed(d, 1),
                  to_string(regimes.regime(d)),
                  util::format_fixed(
                      sim.gain_vs_bluetooth(camera, laptop, at), 2) + "x",
                  util::format_fixed(
                      outcome.plan.tx_joules_per_bit * 1e9, 2)});
  }
  walk.print(std::cout);
  std::cout << "\nThe camera rides the backscatter tag while in Regime A; "
               "once the wearer passes ~2.4 m the gain falls to the "
               "active/passive braid, and past ~5.1 m Braidio degenerates "
               "to Bluetooth.\n";

  const auto metrics = obs::global_metrics_snapshot();
  if (!metrics.empty()) {
    std::cout << "\nobs metrics for this run:\n";
    metrics.to_table().print(std::cout);
  }
  return 0;
}
