// Figure 6: effect of antenna diversity on SNR — the tag sweeps 0.5-2 m
// from the device; one receive chain vs selection over two chip antennas
// spaced lambda/8 apart.
#include <algorithm>
#include <iostream>

#include "rf/constants.hpp"
#include "rf/phase_field.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 6",
                        "Effect of antenna diversity on SNR");

  rf::PhaseField field;
  const double lambda = util::wavelength_m(rf::kCarrierFrequencyHz);
  const double rx_x = field.config().receive_antenna.x;
  const auto line =
      field.sample_line(rx_x + 0.5, rx_x + 2.0, 0.5, 60, lambda / 8.0);

  util::TablePrinter table(
      {"distance [m]", "no diversity [dB]", "with diversity [dB]"});
  double min_single = 1e300, min_div = 1e300, max_single = -1e300;
  for (const auto& s : line) {
    table.add_row({util::format_fixed(s.x - rx_x, 2),
                   util::format_fixed(s.snr_single_db, 1),
                   util::format_fixed(s.snr_diversity_db, 1)});
    min_single = std::min(min_single, s.snr_single_db);
    min_div = std::min(min_div, s.snr_diversity_db);
    max_single = std::max(max_single, s.snr_single_db);
  }
  table.print(std::cout);
  report.export_csv("fig6_antenna_diversity", table);

  report.check("typical SNR", "~30 dB",
               util::format_fixed(max_single, 1) + " dB peak");
  report.check("worst null without diversity", "drops to ~0 dB",
               util::format_fixed(min_single, 1) + " dB");
  report.check("worst null with diversity", "> 5 dB",
               util::format_fixed(min_div, 1) + " dB");
  report.note("lambda/8 spacing shifts the relative tag/background phase by "
              "~pi/2 between the two antennas, so their nulls cannot "
              "coincide (Sec. 3.2).");
  return 0;
}
