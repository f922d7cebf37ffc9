// Table 2: power consumption and cost of commercial RFID readers.
#include <iostream>
#include <string>

#include "baseline/reader.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Table 2",
                        "Commercial reader power consumption and cost");

  util::TablePrinter table(
      {"model", "total power", "TX level", "est. RX power", "cost"});
  for (const auto& r : baseline::reader_table()) {
    table.add_row({r.name, util::format_si_power(r.total_power_w),
                   util::format_fixed(r.tx_power_dbm, 0) + " dBm",
                   util::format_si_power(r.rx_power_w),
                   // Not "$" + ...: GCC 12's -Wrestrict misfires on it.
                   std::string(1, '$').append(
                       util::format_fixed(r.cost_usd, 0))});
  }
  table.print(std::cout);

  report.check("reader power range", "0.64 W ... 4.2 W",
               util::format_si_power(
                   baseline::reader_table().front().total_power_w) +
                   " ... " +
                   util::format_si_power(
                       baseline::reader_table()[4].total_power_w));
  report.note("Braidio's whole backscatter receive end: 129 mW (Sec. 6.1).");
  return 0;
}
