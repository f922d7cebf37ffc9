// Wearable sync: the workload that motivates the paper's introduction.
//
// A fitness band accumulates sensor data all day and syncs it to a phone
// every hour. The band's 0.26 Wh battery has to last as long as possible;
// the phone has 25x the energy. We compare the band's radio budget per day
// under Bluetooth vs Braidio and show the resulting battery-life extension
// for the radio subsystem.
#include <iostream>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "core/lifetime_sim.hpp"
#include "energy/device_catalog.hpp"
#include "hal/radio.hpp"
#include "obs/obs.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;

  constexpr double kSyncMB = 2.0;           // per-hour sensor batch
  constexpr double kSyncsPerDay = 24.0;
  const double bits_per_day = kSyncMB * 8e6 * kSyncsPerDay;

  const hal::RadioBackend& backend = backends::braidio_backend();
  core::LifetimeSimulator sim(backend);

  const auto band = *energy::find_device("Nike Fuel Band");
  const auto phone = *energy::find_device("iPhone 6S");
  const auto e_band = util::to_joules(util::WattHours(band.battery_wh));
  const auto e_phone = util::to_joules(util::WattHours(phone.battery_wh));

  core::LifetimeConfig cfg;
  cfg.distance_m = 0.4;  // wrist to pocket
  const auto plan = sim.braidio(e_band, e_phone, cfg).plan;

  // Per-day radio energy on the band under each technology.
  const double braidio_j = plan.tx_joules_per_bit * bits_per_day;
  const double bt_j =
      sim.bluetooth_model().tx_energy_per_bit() * bits_per_day;

  util::TablePrinter out({"radio", "band energy/day", "% of 0.26 Wh battery",
                          "days of radio budget"});
  auto row = [&](const std::string& name, double joules) {
    out.add_row({name, util::format_fixed(joules, 3) + " J",
                 util::format_fixed(100.0 * joules / e_band.value(), 2) + " %",
                 util::format_fixed(e_band.value() / joules, 0)});
  };
  row("Bluetooth", bt_j);
  row("Braidio", braidio_j);
  out.print(std::cout);

  std::cout << "\nplan while syncing: " << plan.summary() << '\n';
  std::cout << "radio-lifetime extension for the band: "
            << util::format_fixed(bt_j / braidio_j, 1) << "x\n\n";

  // Run one sync session through the packetized protocol to confirm the
  // plan is achievable with real framing/ARQ.
  core::RegimeMap regimes(backend);
  hal::StandardRadio a("band", 1, util::WattHours(band.battery_wh),
                       backend.caps());
  hal::StandardRadio b("phone", 2, util::WattHours(phone.battery_wh),
                       backend.caps());
  core::BraidedLinkConfig link_cfg;
  link_cfg.distance_m = cfg.distance_m;
  link_cfg.payload_bytes = 256;
  core::BraidedLink link(a, b, regimes, link_cfg);
  const auto stats = link.run(1000);  // 256 kB batch
  std::cout << "one sync batch: " << stats.payload_bits_delivered / 8e3
            << " kB delivered, band spent "
            << util::wh_to_joules(band.battery_wh) -
                   a.battery().remaining_joules()
            << " J, phone "
            << util::wh_to_joules(phone.battery_wh) -
                   b.battery().remaining_joules()
            << " J\n";
  std::cout << "executed plan: " << stats.last_plan << '\n';

  const auto metrics = obs::global_metrics_snapshot();
  if (!metrics.empty()) {
    std::cout << "\nobs metrics for this run:\n";
    metrics.to_table().print(std::cout);
  }
  return 0;
}
