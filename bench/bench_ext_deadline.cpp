// Extension: deadline-aware carrier offload (Eq. 1 + a throughput floor).
//
// Energy-optimal braids can crawl; a transfer with a deadline buys
// throughput with energy. Sweep the throughput floor and show the price
// curve: the planner moves along the proportional frontier from the
// cheapest braid toward the fastest one.
#include <iostream>

#include "plan/offload.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  using namespace braidio::plan;
  sim::RunReport report(std::cout, "Extension",
                        "Deadline-aware offload: the price of speed");

  // The demonstration set from the test suite: a cheap crawling braid
  // (Y+Z) vs an expensive fast symmetric mode (X), equal batteries.
  std::vector<ModeCandidate> candidates = {
      {hal::LinkMode::Active, hal::Bitrate::M1, 0.1, 0.1},
      {hal::LinkMode::Backscatter, hal::Bitrate::k10, 5e-5, 2e-4},
      {hal::LinkMode::PassiveRx, hal::Bitrate::M1, 0.2, 0.05},
  };

  util::TablePrinter out({"throughput floor", "achieved", "total nJ/bit",
                          "plan"});
  for (double bps : {1e3, 10e3, 50e3, 100e3, 300e3, 600e3, 900e3, 2e6}) {
    const auto plan = OffloadPlanner::plan_with_min_throughput(
        candidates, 1.0, 1.0, bps);
    out.add_row({util::format_engineering(bps / 1e3, 3) + " kbps",
                 util::format_engineering(plan_throughput_bps(plan) / 1e3,
                                          3) +
                     " kbps" + (plan.meets_throughput ? "" : " (!)"),
                 util::format_fixed(plan.total_joules_per_bit() * 1e9, 1),
                 plan.summary()});
  }
  out.print(std::cout);
  report.export_csv("ext_deadline", out);

  report.note("Below ~11 kbps the cheapest braid suffices (45 nJ/bit "
              "total); each extra decade of demanded throughput shifts "
              "bits from the cheap 10 kbps leg onto the fast symmetric "
              "mode, converging to its 200 nJ/bit. '(!)' marks floors no "
              "proportional plan can reach (fastest plan returned).");
  return 0;
}
