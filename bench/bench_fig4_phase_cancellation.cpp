// Figure 4: the phase cancellation problem.
//  (b) signal-strength field over a 2 m x 2 m area with TX antenna at
//      (0.95, 0.5) and RX antenna at (1.05, 0.5);
//  (c) received signal strength along the y = 0.5 line.
#include <algorithm>
#include <iostream>

#include "rf/phase_field.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 4",
                        "Phase cancellation field map and line cut");

  rf::PhaseField field;  // defaults = the Fig. 4(b) geometry

  // (b) ASCII field map: darker character = weaker envelope signal.
  const std::size_t nx = 64, ny = 24;
  const auto grid = field.sample_grid(0.0, 2.0, 0.0, 2.0, nx, ny);
  double lo = 1e300, hi = -1e300;
  for (const auto& s : grid) {
    lo = std::min(lo, s.level_db);
    hi = std::max(hi, s.level_db);
  }
  lo = std::max(lo, hi - 60.0);  // clip the color scale to 60 dB like the plot
  const std::string shades = " .:-=+*#%@";
  std::cout << "  Envelope signal level, " << util::format_fixed(lo, 0)
            << " dB (' ') to " << util::format_fixed(hi, 0) << " dB ('@'):\n";
  for (std::size_t row = ny; row-- > 0;) {  // y increases upward
    std::cout << "  |";
    for (std::size_t col = 0; col < nx; ++col) {
      const double v = grid[row * nx + col].level_db;
      const double t = std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
      std::cout << shades[static_cast<std::size_t>(
          t * static_cast<double>(shades.size() - 1))];
    }
    std::cout << "|\n";
  }
  report.note("TX antenna at (0.95, 0.5), RX antenna at (1.05, 0.5); note "
              "the dark cancellation fringes close to the devices.");

  // (c) line cut along y = 0.5, sampled finely enough (<< lambda/2) to
  // resolve the interference nulls.
  const auto line = field.sample_line(0.05, 2.0, 0.5, 800, 0.0409);
  util::TablePrinter table({"x [m]", "SNR [dB]"});
  for (std::size_t i = 0; i < line.size(); i += 20) {
    table.add_row({util::format_fixed(line[i].x, 2),
                   util::format_fixed(line[i].snr_single_db, 1)});
  }
  table.print(std::cout);

  double worst = 1e300, peak = -1e300;
  for (const auto& s : line) {
    worst = std::min(worst, s.snr_single_db);
    peak = std::max(peak, s.snr_single_db);
  }
  report.check("null depth along y=0.5",
               "null points with very low SNR close to the devices",
               "deepest null " + util::format_fixed(worst, 1) +
                   " dB, " + util::format_fixed(peak - worst, 0) +
                   " dB below the peak");
  return 0;
}
