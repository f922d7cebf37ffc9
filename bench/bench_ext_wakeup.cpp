// Extension: the passive receiver as a wake-up radio.
//
// Rendezvous cost comparison: duty-cycled active listening (the
// conventional approach the paper's related work cites) vs the always-on
// envelope-detector chain.
#include <iostream>

#include "core/wakeup.hpp"
#include "phy/link_budget.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Extension",
                        "Passive wake-up vs duty-cycled listening");

  core::DutyCycleListener active;
  core::PassiveWakeupListener passive;

  util::TablePrinter out(
      {"strategy", "idle power", "expected wake latency"});
  for (double duty : {1.0, 0.1, 0.01, 0.001}) {
    out.add_row({"active, " + util::format_fixed(100.0 * duty, 1) +
                     "% duty",
                 util::format_si_power(active.average_power_w(duty)),
                 util::format_fixed(
                     active.expected_latency_s(duty) * 1e3, 1) +
                     " ms"});
  }
  out.add_row({"passive (envelope chain)",
               util::format_si_power(passive.average_power_w()),
               util::format_fixed(passive.expected_latency_s() * 1e3, 1) +
                   " ms"});
  out.print(std::cout);
  report.export_csv("ext_wakeup", out);

  report.check(
      "power to match the passive 3.2 ms latency", ">1000x more",
      util::format_fixed(core::equal_latency_power_ratio(active, passive),
                         0) +
          "x");
  phy::LinkBudget budget;
  report.check("wake-up range (passive link @10 kbps)", "5.1 m",
               util::format_fixed(
                   budget.range_m(phy::LinkMode::PassiveRx,
                                  phy::Bitrate::k10),
                   1) +
                   " m");
  report.note("The same charge-pump receiver that makes backscatter cheap "
              "gives Braidio an always-on wake-up channel: the peer keys "
              "its carrier with a 32-bit pattern and the comparator fires "
              "within milliseconds at a 23 uW listening floor.");
  return 0;
}
