// Figure 8: the three operating regimes of Braidio vs distance.
#include <iostream>

#include "backends/backends.hpp"
#include "core/regimes.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 8", "Operating regimes vs distance");

  core::RegimeMap map(backends::braidio_backend());

  util::TablePrinter out({"distance [m]", "regime", "available links",
                          "best rates (active/passive/backscatter)"});
  for (double d :
       {0.3, 0.6, 0.9, 1.2, 1.8, 2.4, 2.6, 3.0, 3.9, 4.2, 4.8, 5.1, 5.5,
        6.0}) {
    const auto best = map.available_best_rate(d);
    std::string rates;
    for (phy::LinkMode mode : phy::kAllLinkModes) {
      const auto rate = map.channel().best_bitrate(mode, d);
      if (!rates.empty()) rates += " / ";
      rates += rate ? phy::to_string(*rate) : std::string("-");
    }
    out.add_row({util::format_fixed(d, 1),
                 to_string(map.regime(d)),
                 std::to_string(best.size()) + " of 3 modes", rates});
  }
  out.print(std::cout);

  report.check("Regime A limit (backscatter link dies)", "2.4 m",
               util::format_fixed(map.regime_a_limit_m(), 2) + " m");
  report.check("Regime B limit (passive link dies)", "5.1 m",
               util::format_fixed(map.regime_b_limit_m(), 2) + " m");
  report.note("Regime A: carrier can sit at either end (full offload "
              "freedom). B: only the receiver can shed its carrier. C: "
              "active only.");
  return 0;
}
