// Figure 12: bit error rate vs distance for Braidio and the AS3993
// commercial reader, both at 100 kbps backscatter. The Monte-Carlo
// waveform column is the expensive part, so the distance sweep runs in
// parallel on the sim engine (output independent of --threads).
#include <iostream>
#include <vector>

#include "baseline/reader.hpp"
#include "bench_common.hpp"
#include "phy/link_budget.hpp"
#include "phy/waveform.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 12",
                        "BER vs distance: Braidio vs commercial reader "
                        "(100 kbps)");

  phy::LinkBudget braidio;
  baseline::CommercialReaderModel reader;

  std::vector<double> distances;
  for (double d = 0.25; d <= 4.01; d += 0.25) distances.push_back(d);

  sim::Scenario scenario(
      "fig12_ber_vs_commercial",
      {sim::Axis::numeric("distance [m]", distances, 2)},
      {"Braidio BER (analytic)", "Braidio BER (waveform MC)", "AS3993 BER"},
      [&](sim::SweepPoint& p) {
        const double d = distances[p.axis_index(0)];
        const double analytic =
            braidio.ber(phy::LinkMode::Backscatter, phy::Bitrate::k100, d);
        phy::WaveformSimConfig mc;
        mc.mode = phy::LinkMode::Backscatter;
        mc.rate = phy::Bitrate::k100;
        mc.distance_m = d;
        mc.bits = 30'000;
        mc.seed = p.seed();
        const double measured =
            phy::simulate_waveform(braidio, mc).measured_ber;
        sim::RunRecord record;
        record.cells = {util::format_scientific(analytic, 3),
                        util::format_scientific(measured, 3),
                        util::format_scientific(reader.ber(d), 3)};
        record.numbers = {analytic, measured, reader.ber(d)};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("fig12_ber_vs_commercial", out);
  report.export_json("fig12_ber_vs_commercial", out);

  report.check("Braidio operational distance (BER < 1e-2)", "1.8 m",
               util::format_fixed(braidio.range_m(phy::LinkMode::Backscatter,
                                                  phy::Bitrate::k100),
                                  2) +
                   " m");
  report.check("commercial reader operational distance", "3 m",
               util::format_fixed(reader.range_m(), 2) + " m");
  report.check("range penalty", "~40% lower",
               util::format_fixed(
                   100.0 * (1.0 - braidio.range_m(phy::LinkMode::Backscatter,
                                                  phy::Bitrate::k100) /
                                      reader.range_m()),
                   0) +
                   "% lower");
  report.check("power: reader vs Braidio", "640 mW vs 129 mW (5x)",
               util::format_fixed(reader.efficiency_ratio_vs(0.129), 2) +
                   "x");
  return 0;
}
