// Figure 9: dynamic range of power assignment — TX vs RX bits-per-joule of
// the three modes, the achievable (shaded) region, and the proportional
// point P for a 100:1 energy ratio.
#include <iostream>
#include <string_view>

#include "backends/backends.hpp"
#include "core/efficiency.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 9",
                        "Transmitter vs receiver energy efficiency");

  core::RegimeMap map(backends::braidio_backend());
  const auto region = efficiency_region(map, 0.3);

  util::TablePrinter out({"operating point", "TX bits/J", "RX bits/J",
                          "TX:RX ratio"});
  for (const auto& p : region.points) {
    if (p.candidate.rate != phy::Bitrate::M1) continue;  // Fig. 9: A, B, C
    out.add_row({p.candidate.label(),
                 util::format_scientific(p.tx_bits_per_joule, 4),
                 util::format_scientific(p.rx_bits_per_joule, 4),
                 p.ratio_label()});
  }
  out.print(std::cout);

  report.check("A (active) ratio", "0.9524:1",
               region.points[2].ratio_label());
  const auto passive_1m = efficiency_region(map, 0.3);
  for (const auto& p : passive_1m.points) {
    if (std::string_view(p.candidate.label()) == "passive@1M") {
      report.check("B (passive) ratio", "1:2546", p.ratio_label());
    }
    if (std::string_view(p.candidate.label()) == "backscatter@1M") {
      report.check("C (backscatter) ratio", "3546:1", p.ratio_label());
    }
  }

  const auto p100 = core::proportional_point(map, 0.3, 100.0);
  report.check("P for a 100:1 energy ratio", "on edge BC",
               p100.plan_summary);
  report.note("Multiplexing the modes reaches every ratio inside the "
              "triangle; edge BC is the best-total-efficiency frontier.");
  return 0;
}
