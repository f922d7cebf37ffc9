// Extension: what Hamming(7,4) buys the marginal links.
//
// The paper's links are uncoded; coded backscatter is cited related work.
// For each (mode, bitrate) we compute the uncoded operating range
// (BER < 1e-2 raw) and the coded range (residual BER < 1e-2 after
// Hamming(7,4), mac::hamming74_residual_ber), at a 4/7 throughput cost.
#include <iostream>

#include "backends/backends.hpp"
#include "core/coded_candidates.hpp"
#include "mac/fec.hpp"
#include "phy/link_budget.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Extension",
                        "FEC (Hamming 7,4 + interleaving) range gains");

  phy::LinkBudget budget;
  util::TablePrinter out({"link", "uncoded range", "coded range",
                          "range gain", "effective bitrate"});
  for (phy::LinkMode mode :
       {phy::LinkMode::Backscatter, phy::LinkMode::PassiveRx}) {
    for (phy::Bitrate rate : phy::kAllBitrates) {
      const double uncoded = budget.range_m(mode, rate);
      const double coded = core::coded_range_m(budget, mode, rate);
      out.add_row({std::string(phy::to_string(mode)) + "@" +
                       phy::to_string(rate),
                   util::format_fixed(uncoded, 2) + " m",
                   util::format_fixed(coded, 2) + " m",
                   util::format_fixed(100.0 * (coded / uncoded - 1.0), 1) +
                       " %",
                   util::format_engineering(
                       phy::bitrate_bps(rate) *
                           mac::Hamming74::code_rate() / 1e3,
                       3) +
                       " kbps"});
    }
  }
  out.print(std::cout);

  const core::RegimeMap map(backends::braidio_backend());
  report.check(
      "Regime A limit (carrier offloadable to either end)", "2.4 m uncoded",
      util::format_fixed(core::coded_regime_a_limit_m(map, budget), 2) +
          " m with coded backscatter");
  report.note("Backscatter's d^-4 rolloff turns coding gain into little "
              "extra range; the passive link's d^-2 slope converts the "
              "same dB into noticeably more meters. The planner treats "
              "coded links as extra (mode, rate) candidates, which is what "
              "extends Regime A.");
  return 0;
}
