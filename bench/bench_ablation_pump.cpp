// Ablation: the Table 4 design note — "Reduced Cs and Cp to improve
// bitrate". Sweep the pump's capacitances and stage count to replay the
// tradeoff the authors navigated on hardware.
#include <iostream>

#include "circuits/pump_design.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  using circuits::PumpDesignExplorer;
  sim::RunReport report(std::cout, "Ablation",
                        "Charge pump design space (Table 4 note)");

  circuits::ChargePumpConfig base;  // 100 pF / 1-stage Fig. 3 pump

  std::cout << "  Capacitance scaling (1 stage):\n";
  util::TablePrinter caps({"Cs=Cp scale", "output [V]", "ripple [V]",
                           "settle [us]", "max OOK bitrate", "Zout [kohm]"});
  for (const auto& p : PumpDesignExplorer::sweep_capacitance(
           base, {0.1, 0.3, 1.0, 3.0, 10.0})) {
    caps.add_row(
        {util::format_fixed(p.config.storage_capacitance / 100e-12, 1) +
             "x",
         util::format_fixed(p.steady_state_volts, 2),
         util::format_fixed(p.ripple_volts, 3),
         util::format_fixed(p.settle_time_s * 1e6, 2),
         util::format_engineering(p.max_ook_bitrate_bps / 1e3, 3) + " kbps",
         util::format_fixed(p.output_impedance_ohms / 1e3, 1)});
  }
  caps.print(std::cout);
  report.note("Large caps hold the boost but settle too slowly for 1 Mbps "
              "OOK; the paper's 'reduced Cs and Cp' trades ripple for the "
              "bitrate headroom of Fig. 13.");

  std::cout << "\n  Stage count (sensitivity vs impedance):\n";
  util::TablePrinter stages({"stages", "output [V]", "boost", "Zout [kohm]",
                             "settle [us]"});
  for (const auto& p : PumpDesignExplorer::sweep_stages(base, 4)) {
    stages.add_row({std::to_string(p.config.stages),
                    util::format_fixed(p.steady_state_volts, 2),
                    util::format_fixed(
                        p.steady_state_volts / p.config.source_amplitude, 2) +
                        "x",
                    util::format_fixed(p.output_impedance_ohms / 1e3, 1),
                    util::format_fixed(p.settle_time_s * 1e6, 2)});
  }
  stages.print(std::cout);
  report.note("More stages boost weak signals (sensitivity) but multiply "
              "the output impedance the INA2331 must not load — why the "
              "paper pairs a short pump with an instrumentation amp "
              "instead of stacking stages.");
  return 0;
}
