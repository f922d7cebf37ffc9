// Ablation: how long must Braidio dwell in a mode before Table 5's
// switching overhead really is "negligible"? (DESIGN.md design-choice
// ablation — the paper asserts negligibility, we locate its boundary.)
#include <iostream>
#include <vector>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "core/lifetime_sim.hpp"
#include "plan/offload.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Ablation",
                        "Mode-switch dwell vs lifetime impact");

  core::LifetimeSimulator sim(backends::braidio_backend());

  // Fuel Band; symmetric: braid of 2 modes.
  const auto e1 = util::to_joules(util::WattHours(0.26));
  const auto e2 = util::to_joules(util::WattHours(0.26));

  core::LifetimeConfig base;
  base.distance_m = 0.5;
  base.bits_per_dwell = plan::kInfiniteDwell;
  const double ideal = sim.braidio(e1, e2, base).bits;

  const std::vector<double> dwells{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9};
  std::vector<std::string> dwell_labels;
  for (double dwell : dwells) {
    dwell_labels.push_back(util::format_scientific(dwell, 2));
  }

  sim::Scenario scenario(
      "ablation_dwell", {{"dwell [bits]", dwell_labels}},
      {"dwell @1 Mbps", "bits vs ideal"}, [&](sim::SweepPoint& p) {
        const double dwell = dwells[p.axis_index(0)];
        core::LifetimeConfig cfg = base;
        cfg.bits_per_dwell = dwell;
        const double bits = sim.braidio(e1, e2, cfg).bits;
        sim::RunRecord record;
        record.cells = {util::format_fixed(dwell / 1e6, 3) + " s",
                        util::format_fixed(100.0 * bits / ideal, 2) + " %"};
        record.numbers = {bits};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("ablation_dwell", out);

  report.note("Below ~10 ms dwells the 8.58e-8 Wh backscatter switch-in "
              "cost dominates the braid; at second-scale dwells the paper's "
              "'negligible' claim holds. This is why the offload layer "
              "switches per-schedule-slot, not per-packet.");
  return 0;
}
