#include "sim/run_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <ostream>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace braidio::sim {

bool export_artifact(const std::string& name, const std::string& ext,
                     const std::string& payload, std::ostream& echo) {
  const char* dir = std::getenv("BRAIDIO_CSV_DIR");
  if (!dir || !*dir) return true;  // export not requested
  const std::string path = std::string(dir) + "/" + name + ext;

  bool ok = false;
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (f) {
      f << payload;
      f.flush();
      // good() after flush catches partial writes (disk full, quota, I/O
      // error), not just open failures.
      ok = f.good();
    }
  }
  if (ok) {
    echo << "  [csv] wrote " << path << '\n';
    return true;
  }
  BRAIDIO_LOG_ERROR << "artifact export failed: " << path
                    << " (open or partial write error)";
  if (const char* strict = std::getenv("BRAIDIO_CSV_STRICT");
      strict && *strict) {
    BRAIDIO_LOG_ERROR << "BRAIDIO_CSV_STRICT set: exiting non-zero";
    std::exit(EXIT_FAILURE);
  }
  return false;
}

bool write_trace_json(const std::string& path, std::ostream& echo) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (f) {
    f << obs::Tracer::instance().to_chrome_json();
    f.flush();
  }
  if (!f.good()) {
    BRAIDIO_LOG_ERROR << "trace export failed: " << path;
    return false;
  }
  echo << "  [trace] wrote " << path
       << " (load in chrome://tracing or ui.perfetto.dev)\n";
  return true;
}

RunReport::RunReport(std::ostream& os, const std::string& id,
                     const std::string& title)
    : os_(&os) {
  const std::string rule(64, '=');
  *os_ << '\n' << rule << '\n' << id << " — " << title << '\n' << rule
       << '\n';
}

void RunReport::note(const std::string& text) {
  *os_ << "  " << text << '\n';
}

void RunReport::check(const std::string& what, const std::string& paper,
                      const std::string& measured) {
  *os_ << "  " << std::left << std::setw(44) << what << " paper: "
       << std::setw(16) << paper << " ours: " << measured << '\n';
}

void RunReport::table(const util::TablePrinter& table) { table.print(*os_); }

void RunReport::table(const ResultTable& results) {
  results.to_printer().print(*os_);
}

void RunReport::metrics(const ResultTable& results) {
  *os_ << "  [sweep] " << results.metrics_summary() << '\n';
  if (!results.metrics().empty()) {
    // Per-point duration spread (display only: wall times are
    // nondeterministic, so they never enter the merged registry).
    obs::HistogramData durations(obs::Histogram::DwellSeconds);
    for (const auto& m : results.metrics()) {
      durations.record(m.wall_seconds);
    }
    *os_ << "  [sweep] point duration p50/p95/p99: "
         << util::format_engineering(durations.p50(), 3) << "s / "
         << util::format_engineering(durations.p95(), 3) << "s / "
         << util::format_engineering(durations.p99(), 3) << "s\n";
  }
  metrics(results.metrics_registry());
}

void RunReport::metrics(const obs::MetricsRegistry& registry) {
  if (registry.empty()) return;
  registry.to_table().print(*os_);
}

bool RunReport::export_csv(const std::string& name,
                           const ResultTable& results) {
  return export_artifact(name, ".csv", results.to_csv(), *os_);
}

bool RunReport::export_csv(const std::string& name,
                           const util::TablePrinter& table) {
  return export_artifact(name, ".csv", table.to_csv(), *os_);
}

bool RunReport::export_json(const std::string& name,
                            const ResultTable& results) {
  return export_artifact(name, ".json", results.to_json_with_meta(), *os_);
}

bool RunReport::export_trace(const std::string& name) {
  const auto snapshot = obs::Tracer::instance().snapshot();
  if (snapshot.total_events() == 0) return true;
  const bool json_ok = export_artifact(name, ".trace.json",
                                       obs::chrome_trace_json(snapshot),
                                       *os_);
  const bool csv_ok =
      export_artifact(name, ".trace.csv", obs::trace_csv(snapshot), *os_);
  return json_ok && csv_ok;
}

bool RunReport::export_profile(const std::string& name,
                               const obs::EnergyProfile& profile) {
  if (profile.empty()) return true;
  const bool json_ok =
      export_artifact(name, ".energy.json", profile.to_json(), *os_);
  const bool folded_ok =
      export_artifact(name, ".folded", profile.to_collapsed_stack(), *os_);
  const bool power_ok = export_artifact(name, ".power.json",
                                        profile.to_chrome_counters(), *os_);
  return json_ok && folded_ok && power_ok;
}

bool RunReport::export_bench(const BenchTelemetry& telemetry) {
  return export_artifact("BENCH_" + telemetry.name, ".json",
                         telemetry.to_json(), *os_);
}

}  // namespace braidio::sim
