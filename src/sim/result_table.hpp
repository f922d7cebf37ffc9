// ResultTable: the ordered, structured output of a sweep.
//
// Rows are stored in flat-index order (row-major over the scenario's axes),
// so the table's data — `to_csv()`, `to_json()`, `to_printer()` — is a pure
// function of (scenario, master seed) and is byte-identical whether the
// sweep ran on 1 thread or 64. Per-point wall times and the run's thread
// count are kept separately in `metrics()` / run fields and are explicitly
// excluded from the data renderings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"

namespace braidio::sim {

/// Non-deterministic per-point bookkeeping (never part of the data output).
struct PointMetrics {
  double wall_seconds = 0.0;
};

class ResultTable {
 public:
  /// Captures the scenario's shape; rows are filled in by SweepRunner.
  ResultTable(const Scenario& scenario, std::uint64_t master_seed);

  const std::string& scenario_name() const { return name_; }
  std::uint64_t master_seed() const { return seed_; }
  const std::vector<Axis>& axes() const { return axes_; }
  const std::vector<std::string>& value_columns() const { return columns_; }

  std::size_t row_count() const { return records_.size(); }
  const RunRecord& record(std::size_t row) const;
  const std::string& axis_label(std::size_t row, std::size_t axis) const;

  /// Headers = axis names then value columns; one row per grid point.
  util::TablePrinter to_printer() const;

  /// Long-format CSV of the same data (deterministic across thread counts).
  std::string to_csv() const;

  /// JSON document: scenario name, seed, axes, and one object per row
  /// (deterministic across thread counts).
  std::string to_json() const;

  /// JSON document with a run-metadata envelope: seed, thread count,
  /// wall-clock duration, whether BRAIDIO_OBS was compiled in, the merged
  /// metrics registry, and the deterministic data from to_json() under
  /// "data". Unlike to_json(), this output varies between runs (wall
  /// time, threads) — use to_json() when diffing results.
  std::string to_json_with_meta() const;

  /// Matrix view: rows = `row_axis` values, columns = `col_axis` values,
  /// cells = value column `value_col`. Requires exactly two axes worth of
  /// variation (other axes must have size 1).
  util::TablePrinter pivot(std::size_t row_axis, std::size_t col_axis,
                           std::size_t value_col) const;

  // --- run metrics (excluded from the data renderings above) ---
  const std::vector<PointMetrics>& metrics() const { return metrics_; }
  unsigned threads_used() const { return threads_used_; }
  double total_wall_seconds() const { return total_wall_seconds_; }
  std::size_t eval_count() const { return records_.size(); }
  /// One-line human summary: points, threads, wall time, evals/s.
  std::string metrics_summary() const;

  /// Everything the grid-point evaluations posted to the obs hooks,
  /// merged in flat-index order (byte-identical for any thread count;
  /// empty when BRAIDIO_OBS is compiled out).
  const obs::MetricsRegistry& metrics_registry() const {
    return metrics_registry_;
  }

  /// Energy attribution the grid-point evaluations posted (obs/span.hpp),
  /// merged in flat-index order like the metrics registry — byte-identical
  /// for any thread count; empty unless obs::set_attribution_enabled(true)
  /// was in effect during the sweep.
  const obs::EnergyProfile& energy_profile() const {
    return energy_profile_;
  }

 private:
  friend class SweepRunner;

  /// Flat-index step between neighbours along `axis` (row-major).
  std::size_t stride(std::size_t axis) const;

  std::string name_;
  std::uint64_t seed_;
  std::vector<Axis> axes_;
  std::vector<std::string> columns_;
  std::vector<RunRecord> records_;
  std::vector<PointMetrics> metrics_;
  obs::MetricsRegistry metrics_registry_;
  obs::EnergyProfile energy_profile_;
  unsigned threads_used_ = 1;
  double total_wall_seconds_ = 0.0;
};

}  // namespace braidio::sim
