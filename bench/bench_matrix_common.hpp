// Shared 10x10 device-matrix sweep for Figs. 15-17, run on the sim engine.
//
// The matrix is a two-axis Scenario (RX device x TX device) evaluated in
// parallel by the SweepRunner; the printed matrix, CSV, and JSON are
// byte-identical for any --threads value (see sim/sweep_runner.hpp).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "energy/device_catalog.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"

namespace braidio::bench {

/// Short labels matching the figure axes.
inline std::string short_name(const std::string& device) {
  if (device == "Nike Fuel Band") return "FuelBand";
  if (device == "Pebble Watch") return "Pebble";
  if (device == "Apple Watch") return "Watch";
  if (device == "Pivothead") return "Pivot";
  if (device == "iPhone 6S") return "iP6S";
  if (device == "iPhone 6 Plus") return "iP6+";
  if (device == "Nexus 6P") return "N6P";
  if (device == "Surface Book") return "Surface";
  if (device == "MacBook Pro 13") return "MBP13";
  if (device == "MacBook Pro 15") return "MBP15";
  return device;
}

using GainFn = std::function<double(const energy::DeviceSpec& tx,
                                    const energy::DeviceSpec& rx)>;

/// gain(tx, rx) over the full catalog as a Scenario: axis 0 = RX (rows),
/// axis 1 = TX (columns), as in the paper's matrices. `gain` must be
/// thread-safe (the simulator entry points are const/reentrant).
inline sim::Scenario gain_matrix_scenario(std::string name, GainFn gain) {
  const auto& catalog = energy::device_catalog();
  std::vector<std::string> labels;
  labels.reserve(catalog.size());
  for (const auto& spec : catalog) labels.push_back(short_name(spec.name));
  std::vector<sim::Axis> axes{{"RX", labels}, {"TX", labels}};
  return sim::Scenario(
      std::move(name), std::move(axes), {"gain"},
      [gain = std::move(gain), &catalog](sim::SweepPoint& p) {
        const auto& rx = catalog[p.axis_index(0)];
        const auto& tx = catalog[p.axis_index(1)];
        const double g = gain(tx, rx);
        sim::RunRecord record;
        record.cells.push_back(util::format_engineering(g, 3));
        record.numbers.push_back(g);
        return record;
      });
}

/// Run the matrix sweep, print the pivoted 10x10 matrix + run metrics, and
/// export CSV/JSON artifacts plus the BENCH_<name>.json telemetry record
/// (and, when attribution was enabled, the energy profile). Returns the
/// table for check-line scans. `bits_per_joule` feeds the telemetry
/// record's delivered_bits_per_joule field.
inline sim::ResultTable run_gain_matrix(
    sim::RunReport& report, const std::string& csv_name,
    const sim::SweepOptions& options, GainFn gain,
    double bits_per_joule = std::numeric_limits<double>::quiet_NaN()) {
  const auto scenario = gain_matrix_scenario(csv_name, std::move(gain));
  const auto table = sim::SweepRunner(options).run(scenario);
  report.table(table.pivot(/*row_axis=*/0, /*col_axis=*/1, /*value_col=*/0));
  report.metrics(table);
  report.export_csv(csv_name, table);
  report.export_json(csv_name, table);
  export_bench_telemetry(report, csv_name, table, bits_per_joule);
  return table;
}

/// Scan every (tx, rx) cell with the raw gain value (row-major RX x TX).
inline void for_each_pair(
    const sim::ResultTable& table,
    const std::function<void(const energy::DeviceSpec& tx,
                             const energy::DeviceSpec& rx, double gain)>&
        visit) {
  const auto& catalog = energy::device_catalog();
  const std::size_t n = catalog.size();
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const auto& rx = catalog[row / n];
    const auto& tx = catalog[row % n];
    visit(tx, rx, table.record(row).numbers.at(0));
  }
}

}  // namespace braidio::bench
