// Table 1: transmitter/receiver power ratio of Bluetooth and BLE chips.
#include <iostream>

#include "baseline/bluetooth.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Table 1",
                        "TX/RX power ratio of Bluetooth and BLE");

  util::TablePrinter table(
      {"chip", "transmit", "receive", "TX/RX ratio"});
  for (const auto& chip : baseline::bluetooth_chip_table()) {
    table.add_row(
        {chip.name,
         util::format_si_power(chip.tx_power_low_w) + " ~ " +
             util::format_si_power(chip.tx_power_high_w),
         util::format_si_power(chip.rx_power_low_w) + " ~ " +
             util::format_si_power(chip.rx_power_high_w),
         util::format_fixed(chip.ratio_low(), 2) + " ~ " +
             util::format_fixed(chip.ratio_high(), 2)});
  }
  table.print(std::cout);

  report.check("CC2541 ratio", "0.82 ~ 1.0",
               util::format_fixed(
                   baseline::bluetooth_chip_table()[0].ratio_low(), 2) +
                   " ~ " +
                   util::format_fixed(
                       baseline::bluetooth_chip_table()[0].ratio_high(),
                       2));
  report.check("CC2640 ratio", "1.1 ~ 1.6",
               util::format_fixed(
                   baseline::bluetooth_chip_table()[1].ratio_low(), 2) +
                   " ~ " +
                   util::format_fixed(
                       baseline::bluetooth_chip_table()[1].ratio_high(),
                       2));
  report.note("Contrast with Braidio's 1:2546 ... 3546:1 (Figure 9).");
  return 0;
}
