// Mobility: a phone pushing navigation/media data to a smartwatch while
// the wearer walks around a room. Large-to-small transfers keep an
// offload option (the watch's passive receiver) all the way to ~5 m, so
// the braid survives every regime crossing.
//
// Ported onto the sim engine: a Scenario over independent random walks
// (one axis = walk replica, each seeded from its own child stream) runs in
// parallel, then the first walk's plan transitions are replayed in
// detail. Try `--threads N`, and `--trace-out=walk.json` for a Chrome
// trace timeline of the whole run (mode switches, dwells, energy posts).
#include <iostream>
#include <vector>

#include "backends/backends.hpp"
#include "core/mobility_sim.hpp"
#include "obs/obs.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  const std::string trace_out = sim::trace_out_from_cli(argc, argv);
  if (!trace_out.empty()) obs::Tracer::instance().set_enabled(true);

  sim::RunReport report(std::cout, "Example",
                        "Mobility walk: phone -> watch across regimes");

  core::MobilitySimulator mobility(backends::braidio_backend());

  core::MobilitySimConfig cfg;
  cfg.e1 = util::WattHours(6.55);  // iPhone 6S transmits
  cfg.e2 = util::WattHours(0.78);  // Apple Watch receives
  cfg.replan_interval = util::Seconds(1.0);

  auto walk_trace = [](std::uint64_t seed) {
    // 2 minutes of wandering between arm's length and across the room.
    return core::MobilityTrace::random_walk(
        0.3, 5.5, /*speed=*/1.4, util::Seconds(/*duration=*/120.0), seed);
  };

  const std::size_t walks = 8;
  sim::Scenario scenario(
      "mobility_walks", {sim::Axis::indexed("walk", walks)},
      {"MB moved", "replans", "plan changes", "vs BT throughput",
       "watch life/bit vs BT"},
      [&](sim::SweepPoint& p) {
        const auto trace = walk_trace(p.seed());
        const auto outcome = mobility.run(trace, cfg);
        sim::RunRecord record;
        record.cells = {
            util::format_fixed(outcome.total_bits / 8e6, 1),
            std::to_string(outcome.replans),
            std::to_string(outcome.plan_changes),
            util::format_fixed(outcome.throughput_ratio_vs_bluetooth(), 2) +
                "x",
            util::format_fixed(outcome.lifetime_gain_vs_bluetooth(2), 1) +
                "x"};
        record.numbers = {outcome.total_bits};
        return record;
      });

  sim::SweepOptions options;
  options.threads = sim::threads_from_cli(argc, argv);
  const auto out = sim::SweepRunner(options).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("mobility_walks", out);

  // Replay walk 0 serially for the plan-transition detail table.
  const std::uint64_t walk0_seed =
      util::Rng::stream_seed(options.seed, 0);
  const auto trace = walk_trace(walk0_seed);
  const auto outcome = mobility.run(trace, cfg);

  util::TablePrinter detail({"t [s]", "d [m]", "regime", "plan"});
  std::string last;
  for (const auto& s : outcome.samples) {
    if (s.plan == last) continue;  // print only plan transitions
    last = s.plan;
    detail.add_row({util::format_fixed(s.time_s, 0),
                    util::format_fixed(s.distance_m, 2),
                    to_string(s.regime), s.plan});
  }
  report.note("walk 0 plan transitions:");
  report.table(detail);

  report.note("phone spent " +
              util::format_fixed(
                  outcome.samples.back().device1_joules_used, 1) +
              " J, watch " +
              util::format_fixed(
                  outcome.samples.back().device2_joules_used, 1) +
              " J on walk 0; braids reform at every regime crossing.");

  // The walk-0 replay ran outside the sweep, so its posts landed in the
  // process-global registry.
  report.metrics(obs::global_metrics_snapshot());
  report.export_trace("mobility_walks");
  if (!trace_out.empty() &&
      !sim::write_trace_json(trace_out, report.stream())) {
    return 1;
  }
  return 0;
}
