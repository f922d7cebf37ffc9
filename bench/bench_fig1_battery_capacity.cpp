// Figure 1: battery capacity for mobile devices (log-scale bar chart).
#include <cmath>
#include <iostream>

#include "energy/device_catalog.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 1",
                        "Battery capacity for mobile devices");

  util::TablePrinter table({"device", "capacity [Wh]", "log10", "bar"});
  for (const auto& dev : energy::device_catalog()) {
    const double lg = std::log10(dev.battery_wh);
    // Log-scale bar from 10^-1 to 10^2, matching the figure's axis.
    const int width = static_cast<int>((lg + 1.0) / 3.0 * 48.0);
    table.add_row({dev.name, util::format_fixed(dev.battery_wh, 2),
                   util::format_fixed(lg, 2),
                   std::string(static_cast<std::size_t>(std::max(width, 1)),
                               '#')});
  }
  table.print(std::cout);

  report.check("laptop : fitness-band capacity span",
               "~3 orders of magnitude",
               util::format_fixed(
                   std::log10(energy::catalog_capacity_span()), 2) +
                   " orders (" +
                   util::format_fixed(energy::catalog_capacity_span(),
                                      0) +
                   "x)");
  report.note("Capacity sources are public teardowns/specs (see "
              "device_catalog.cpp); the paper plots the same devices.");
  return 0;
}
