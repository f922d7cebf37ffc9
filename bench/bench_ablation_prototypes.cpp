// Ablation: the three hardware iterations of Sec. 5.
//
// Why did the paper need the passive self-interference-cancellation idea
// at all? Replay the design history: each iteration's backscatter receive
// budget, the diagonal (equal-battery) gain it would deliver, and its
// peak device power draw. One sweep axis: the prototype version.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/prototypes.hpp"
#include "plan/offload.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Ablation",
                        "Hardware iterations (Sec. 5)");

  core::PowerTable v3;
  const double bt_per_bit = 94.56e-9;
  const auto& protos = core::prototype_table();

  std::vector<std::string> versions;
  for (const auto& proto : protos) versions.push_back(proto.version);

  sim::Scenario scenario(
      "ablation_prototypes", {{"iteration", versions}},
      {"backscatter RX end", "diag. gain vs BT", "peak device power",
       "paper verdict"},
      [&](sim::SweepPoint& p) {
        const auto& proto = protos[p.axis_index(0)];
        auto candidates = core::prototype_candidates(proto, v3);
        std::vector<core::ModeCandidate> fast;
        double peak = 0.0;
        for (const auto& c : candidates) {
          peak = std::max({peak, c.tx_power_w, c.rx_power_w});
          if (c.rate == phy::Bitrate::M1) fast.push_back(c);
        }
        const auto plan = plan::OffloadPlanner::plan(fast, 1.0, 1.0);
        sim::RunRecord record;
        record.cells = {
            util::format_si_power(proto.backscatter_rx_power_w),
            util::format_fixed(bt_per_bit / plan.tx_joules_per_bit, 2) +
                "x",
            util::format_si_power(peak), proto.verdict};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.export_csv("ablation_prototypes", out);

  report.note("With a 640 mW reader end the planner routes around "
              "backscatter almost entirely, so v1 degenerates to "
              "Bluetooth; v2 is marginal and still draws a quarter watt; "
              "only the passive charge-pump receiver (v3) makes carrier "
              "offload cheaper than just running the active radio.");
  return 0;
}
