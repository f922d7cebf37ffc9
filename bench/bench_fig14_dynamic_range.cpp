// Figure 14: energy efficiency and dynamic range of Braidio at different
// distances and bitrates — the shrinking achievable region.
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "core/efficiency.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 14",
                        "Dynamic range vs distance");

  core::RegimeMap map(backends::braidio_backend());

  const std::vector<double> distances{0.3, 0.9, 1.2, 1.8, 2.1, 2.4,
                                      3.0, 3.9, 4.2, 4.8, 5.5};

  sim::Scenario scenario(
      "fig14_dynamic_range",
      {sim::Axis::numeric("distance [m]", distances, 1)},
      {"regime", "operating points", "ratio span", "orders of magnitude"},
      [&](sim::SweepPoint& p) {
        const auto region =
            core::efficiency_region(map, distances[p.axis_index(0)]);
        std::string span = "-";
        std::string orders = "-";
        if (!region.points.empty()) {
          core::EfficiencyPoint lo, hi;
          for (const auto& pt : region.points) {
            if (pt.ratio == region.min_ratio()) lo = pt;
            if (pt.ratio == region.max_ratio()) hi = pt;
          }
          span = lo.ratio_label() + " ... " + hi.ratio_label();
          orders =
              util::format_fixed(region.span_orders_of_magnitude(), 2);
        }
        sim::RunRecord record;
        record.cells = {to_string(region.regime),
                        std::to_string(region.points.size()), span, orders};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv("fig14_dynamic_range", out);

  // The paper's annotated corner ratios (at any distance where the
  // corresponding link still operates).
  const auto close = core::efficiency_region(map, 0.3);
  report.check("full-rate corners at 0.3 m", "1:2546 and 3546:1", [&] {
    std::string s;
    for (const auto& p : close.points) {
      const std::string_view label = p.candidate.label();
      if (label == "passive@1M") s += p.ratio_label();
      if (label == "backscatter@1M") s += " and " + p.ratio_label();
    }
    return s;
  }());
  report.check("low-rate extremes", "1:5600 and 7800:1", [&] {
    std::string s;
    for (const auto& p : close.points) {
      const std::string_view label = p.candidate.label();
      if (label == "passive@10k") s += p.ratio_label();
      if (label == "backscatter@10k") s += " and " + p.ratio_label();
    }
    return s;
  }());
  report.check("total span at 0.3 m", "seven orders of magnitude",
               util::format_fixed(close.span_orders_of_magnitude(), 2) +
                   " orders");
  report.note("Past 2.4 m only {active, passive} remain (a line); past "
              "5.1 m the region is the single active point.");
  return 0;
}
