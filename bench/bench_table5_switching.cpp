// Table 5: switching overhead in different modes, and what it does to the
// lifetime results at realistic dwells.
#include <iostream>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "plan/offload.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Table 5", "Switching overhead per mode");

  core::PowerTable table;
  util::TablePrinter out({"mode", "TX switch-in", "RX switch-in"});
  auto wh = [](double joules) {
    return util::format_scientific(util::joules_to_wh(joules), 3) + " Wh";
  };
  for (phy::LinkMode mode : phy::kAllLinkModes) {
    const auto& o = table.switch_overhead(mode);
    out.add_row({phy::to_string(mode), wh(o.tx_joules), wh(o.rx_joules)});
  }
  out.print(std::cout);

  report.check("active TX / RX", "1.05e-9 / 1.01e-9 Wh",
               wh(table.switch_overhead(phy::LinkMode::Active).tx_joules) +
                   " / " +
                   wh(table.switch_overhead(phy::LinkMode::Active)
                          .rx_joules));
  report.check(
      "backscatter TX (worst case, 10 kbps)", "8.58e-8 Wh",
      wh(table.switch_overhead(phy::LinkMode::Backscatter).tx_joules));

  // Quantify "negligible": total-bits impact of the overhead at a
  // second-scale dwell for an asymmetric pair.
  core::LifetimeSimulator sim(backends::braidio_backend());
  core::LifetimeConfig with;
  with.distance_m = 0.5;
  core::LifetimeConfig without = with;
  without.bits_per_dwell = plan::kInfiniteDwell;
  const auto e1 = util::to_joules(util::WattHours(0.78));
  const auto e2 = util::to_joules(util::WattHours(6.55));
  const double loss = 1.0 - sim.braidio(e1, e2, with).bits /
                                sim.braidio(e1, e2, without).bits;
  report.check("lifetime impact at ~100 s dwells",
               "negligible in all modes",
               util::format_scientific(100.0 * loss, 2) + " % bits lost");
  return 0;
}
