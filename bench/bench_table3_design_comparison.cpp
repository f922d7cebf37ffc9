// Table 3: commercial reader vs Braidio design choices, with the measured
// consequences of each substitution quantified from our models.
#include <iostream>

#include "baseline/reader.hpp"
#include "circuits/comparator.hpp"
#include "circuits/inst_amp.hpp"
#include "phy/ber.hpp"
#include "phy/link_budget.hpp"
#include "rf/constants.hpp"
#include "rf/phase_field.hpp"
#include "rf/saw_filter.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Table 3",
                        "Commercial reader vs Braidio, quantified");

  util::TablePrinter table({"concern", "commercial reader", "Braidio",
                            "measured consequence"});

  // Phase cancellation.
  {
    rf::PhaseField field;
    const double lambda = util::wavelength_m(rf::kCarrierFrequencyHz);
    const double rx_x = field.config().receive_antenna.x;
    const auto line =
        field.sample_line(rx_x + 0.5, rx_x + 2.0, 0.5, 300, lambda / 8.0);
    double min_single = 1e300, min_div = 1e300;
    for (const auto& s : line) {
      min_single = std::min(min_single, s.snr_single_db);
      min_div = std::min(min_div, s.snr_diversity_db);
    }
    table.add_row({"phase cancellation", "IQ orthogonal receiver",
                   "2-antenna diversity (lambda/8)",
                   "null " + util::format_fixed(min_single, 1) +
                       " dB -> " + util::format_fixed(min_div, 1) +
                       " dB (cannot null both)"});
  }

  // Signal amplification.
  {
    circuits::InstAmp amp;
    circuits::Comparator cmp;
    const double chain_w = amp.power_watts() + cmp.power_watts();
    phy::LinkBudget budget;
    table.add_row(
        {"signal amplification", "RF LNA + IF amp + DSP",
         "charge pump + inst. amplifier",
         util::format_si_power(chain_w) + " chain; sensitivity " +
             util::format_fixed(budget.noise_floor_dbm(
                                    phy::LinkMode::Backscatter,
                                    phy::Bitrate::k100),
                                1) +
             " dBm vs reader-class -80 dBm"});
  }

  // Frequency selection.
  {
    rf::SawFilter saw;
    table.add_row(
        {"frequency selection", "mixer + low-pass filter",
         "SAW filter (passive, 0 W)",
         util::format_fixed(saw.attenuation_db(2.45e9), 0) +
             " dB @2.4 GHz / " +
             util::format_fixed(saw.attenuation_db(850e6), 0) +
             " dB @800 MHz for " +
             util::format_fixed(saw.spec().insertion_loss_db, 1) +
             " dB in-band"});
  }
  table.print(std::cout);

  baseline::CommercialReaderModel reader;
  report.check("net effect: reader power vs Braidio", "640 mW vs 129 mW",
               util::format_si_power(reader.power_watts()) +
                   " vs 129 mW (" +
                   util::format_fixed(reader.efficiency_ratio_vs(0.129),
                                      1) +
                   "x)");
  report.check("net effect: range @100 kbps", "3 m vs 1.8 m",
               util::format_fixed(reader.range_m(), 1) + " m vs " +
                   util::format_fixed(
                       phy::LinkBudget().range_m(
                           phy::LinkMode::Backscatter,
                           phy::Bitrate::k100),
                       1) +
                   " m");
  return 0;
}
