#include "sim/bench_telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.hpp"
#include "sim/result_table.hpp"
#include "util/contract.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace braidio::sim {

BenchTelemetry::BenchTelemetry()
    : delivered_bits_per_joule(
          std::numeric_limits<double>::quiet_NaN()) {}

BenchTelemetry BenchTelemetry::from_table(const std::string& name,
                                          const ResultTable& table) {
  BRAIDIO_REQUIRE(!name.empty(), "name_length", name.size());
  BenchTelemetry t;
  t.name = name;
  t.points = table.row_count();
  t.threads = table.threads_used();
  t.wall_seconds = table.total_wall_seconds();
  t.points_per_second =
      t.wall_seconds > 0.0
          ? static_cast<double>(t.points) / t.wall_seconds
          : 0.0;
  // Top attributions: joules descending, ties broken by path so the
  // ordering (and hence the record) is deterministic.
  std::vector<std::pair<std::string, double>> paths;
  for (const auto& [path, slot] : table.energy_profile().entries()) {
    paths.emplace_back(path, slot.joules);
  }
  std::sort(paths.begin(), paths.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (paths.size() > kBenchTopAttributions) {
    paths.resize(kBenchTopAttributions);
  }
  t.top_attributions = std::move(paths);
  for (std::size_t c = 0; c < obs::kCounterCount; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    const std::uint64_t v = table.metrics_registry().value(counter);
    if (v != 0) t.counters[obs::to_string(counter)] = v;
  }
  return t;
}

std::string BenchTelemetry::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"" << kBenchTelemetrySchema << "\",\n"
     << "  \"name\": \"" << util::json_escape(name) << "\",\n"
     << "  \"points\": " << points << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"wall_seconds\": " << util::format_engineering(wall_seconds, 17)
     << ",\n  \"points_per_second\": "
     << util::format_engineering(points_per_second, 17)
     << ",\n  \"delivered_bits_per_joule\": "
     << (std::isnan(delivered_bits_per_joule)
             ? std::string("null")
             : util::format_engineering(delivered_bits_per_joule, 17))
     << ",\n  \"top_attributions\": [";
  bool first = true;
  for (const auto& [path, joules] : top_attributions) {
    os << (first ? "" : ",") << "\n    {\"path\": \""
       << util::json_escape(path)
       << "\", \"joules\": " << util::format_engineering(joules, 17)
       << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n  \"counters\": {";
  first = true;
  for (const auto& [name_, v] : counters) {
    os << (first ? "" : ", ") << "\"" << util::json_escape(name_)
       << "\": " << v;
    first = false;
  }
  os << "}";
  // Soft fields are optional so benches without them keep their exact
  // historical record bytes.
  if (!soft.empty()) {
    os << ",\n  \"soft\": {";
    first = true;
    for (const auto& [name_, v] : soft) {
      os << (first ? "" : ", ") << "\"" << util::json_escape(name_)
         << "\": " << util::format_engineering(v, 17);
      first = false;
    }
    os << "}";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace braidio::sim
