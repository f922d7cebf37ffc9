// RunReport: structured reporting for reproduction benches and examples.
//
// Replaces the ad-hoc header/check_line/maybe_export_csv helpers that every
// bench hand-rolled: one object owns the output stream, renders headers,
// "paper vs ours" check lines, result tables, per-run metrics, and CSV/JSON
// artifact export with real error handling.
//
// Artifact export contract: when BRAIDIO_CSV_DIR is set, exports write
// <dir>/<name>.{csv,json}. A failed or PARTIAL write is detected (stream
// state is checked after flush), reported on stderr via the logger, and —
// when BRAIDIO_CSV_STRICT is also set (any non-empty value) — terminates
// the process with a non-zero exit code so CI catches truncated artifacts.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/bench_telemetry.hpp"
#include "sim/result_table.hpp"
#include "util/table.hpp"

namespace braidio::sim {

/// Write `payload` to <BRAIDIO_CSV_DIR>/<name><ext> if the env var is set.
/// Returns false when the directory is set but the write failed (error is
/// logged; process exits non-zero first if BRAIDIO_CSV_STRICT is set).
/// `echo` receives a one-line "[csv] wrote <path>" confirmation.
bool export_artifact(const std::string& name, const std::string& ext,
                     const std::string& payload, std::ostream& echo);

/// Write the obs tracer's current contents as Chrome trace JSON to `path`
/// (an explicit file path, independent of BRAIDIO_CSV_DIR — the
/// `--trace-out=<file>` flag lands here). Returns false on I/O failure
/// (logged). `echo` receives a one-line confirmation.
bool write_trace_json(const std::string& path, std::ostream& echo);

class RunReport {
 public:
  /// Prints the "=== id — title ===" banner on construction.
  RunReport(std::ostream& os, const std::string& id,
            const std::string& title);

  std::ostream& stream() { return *os_; }

  /// Indented free-form commentary line.
  void note(const std::string& text);

  /// "what   paper: X   ours: Y" check line (EXPERIMENTS.md-style).
  void check(const std::string& what, const std::string& paper,
             const std::string& measured);

  /// Print a rendered table.
  void table(const util::TablePrinter& table);

  /// Print a ResultTable in long format.
  void table(const ResultTable& results);

  /// Print the run's execution metrics (threads, wall time, evals/s) plus
  /// per-point duration percentiles, and — when the sweep collected obs
  /// metrics — the merged metrics registry table.
  void metrics(const ResultTable& results);

  /// Print a metrics registry as a table (no-op when empty).
  void metrics(const obs::MetricsRegistry& registry);

  /// Export the table as <name>.csv / <name>.json under BRAIDIO_CSV_DIR
  /// (no-ops when the env var is unset). Returns false on write failure.
  /// The JSON export carries the run-metadata envelope
  /// (ResultTable::to_json_with_meta).
  bool export_csv(const std::string& name, const ResultTable& results);
  bool export_csv(const std::string& name, const util::TablePrinter& table);
  bool export_json(const std::string& name, const ResultTable& results);

  /// Export the current contents of the obs tracer as <name>.trace.json
  /// (Chrome trace_event) and <name>.trace.csv under BRAIDIO_CSV_DIR.
  /// No-op (returns true) when tracing is disabled or nothing was
  /// recorded.
  bool export_trace(const std::string& name);

  /// Export an energy profile as <name>.energy.json (attribution +
  /// series), <name>.folded (collapsed-stack flame graph), and
  /// <name>.power.json (Chrome counter tracks) under BRAIDIO_CSV_DIR.
  /// No-op (returns true) when the profile is empty.
  bool export_profile(const std::string& name,
                      const obs::EnergyProfile& profile);

  /// Export a benchmark-telemetry record as BENCH_<name>.json under
  /// BRAIDIO_CSV_DIR (schema kBenchTelemetrySchema).
  bool export_bench(const BenchTelemetry& telemetry);

 private:
  std::ostream* os_;
};

}  // namespace braidio::sim
