// perfbench: the braidio repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Workloads: star_csma_dense, grid_tdma_relay, fluid_sweep (see README.md).
// One warm-up operation runs first and sets the determinism reference.
// With --trace 0 operations then repeat, untraced, for S seconds and the
// end-to-end timings are the best operation of the run. With
// --trace 1 untraced and traced operations alternate for S seconds; the
// per-layer metrics come from the traced operations and the layer probes,
// and bench.trace_overhead_ratio compares the two kinds. Human-readable
// lines start with '#'; the last line of standard output is the JSON
// result. The exit code is 0 only when every output check held.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

/// Gated timings report the run's best operation: the least time, the
/// highest rate. Other tenants of a shared host slow operations in bursts
/// lasting seconds to minutes; the best of a 40 s run tracks the program's
/// own cost two to four times more steadily than the median
/// (README.md, "Noise").
double best(const std::vector<double>& samples, bool higher_is_better) {
  return quantile(samples, higher_is_better ? 1.0 : 0.0);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"bits_per_joule", "bit/J"},
    {"delivery_ratio", "1"},
};

/// The per-layer metrics, in BENCHMARK.json order. A workload that never
/// calls a layer reports it as 0.
constexpr MetricSpec kPerLayer[] = {
    {"util.rng.stream_s", "s"},
    {"util.rng.ns_per_stream", "ns"},
    {"backends.create_radio_s", "s"},
    {"net.topology.build_s", "s"},
    {"net.sim.ctor_s", "s"},
    {"net.sim.ctor_leftover_s", "s"},
    {"net.sim.run_s", "s"},
    {"net.host_ns_per_event", "ns"},
    {"net.event_queue.ns_per_op", "ns"},
    {"net.event_queue.est_s", "s"},
    {"net.event_queue.scan_steps", "count"},
    {"net.event_queue.peak_depth", "count"},
    {"net.event_queue.retunes", "count"},
    {"net.event_queue.grows", "count"},
    {"net.medium.ns_per_query", "ns"},
    {"net.medium.est_s", "s"},
    {"net.medium.mean_active", "count"},
    {"net.medium.queries", "count"},
    {"phy.ns_per_ber", "ns"},
    {"phy.est_s", "s"},
    {"phy.ber_calls", "count"},
    {"energy.ledger.ns_per_charge", "ns"},
    {"energy.ledger.est_s", "s"},
    {"energy.posts", "count"},
    {"hal.mode_switches", "count"},
    {"net.mac.tdma_rounds", "count"},
    {"net.mac.registrations", "count"},
    {"net.sim.unattributed_s", "s"},
    {"net.events", "count"},
    {"net.tx_attempts", "count"},
    {"net.delivered", "count"},
    {"net.forwarded", "count"},
    {"net.csma_failures", "count"},
    {"net.arq_drops", "count"},
    {"mac.arq_retries", "count"},
    {"net.useful_tx_ratio", "1"},
    {"core.lifetime.eval_s", "s"},
    {"core.offload.ns_per_plan", "ns"},
    {"core.paper_gap_log10", "1"},
    {"sim.points", "count"},
    {"sim.sweep.run_s", "s"},
    {"sim.sweep.overhead_s", "s"},
    {"sim.sweep.merge_s", "s"},
    {"sim.point_p50_us", "us"},
    {"sim.point_p99_us", "us"},
    {"sim.point_samples", "count"},
    {"obs.netstats_export_s", "s"},
    {"obs.profile_export_s", "s"},
    {"sim.table_export_s", "s"},
    {"obs.export_bytes", "B"},
    {"obs.profile_leaves", "count"},
    {"bench.trace_overhead_ratio", "1"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      seen_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      seen_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      seen_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !seen_seed || !seen_seconds || !seen_trace ||
      !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE]");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args, Trace& trace) {
  if (args.workload == "fluid_sweep") {
    return make_fluid_workload(args.seed, trace);
  }
  return make_net_workload(args.workload, args.seed, trace);
}

/// Repeat operations for `seconds` (at least three of each kind, at most
/// until three times `seconds` has passed). With `alternate`, untraced and
/// traced operations take turns, so both see the same load on a shared
/// host and their ratio is the tracing overhead.
void run_for(Workload& workload, Trace& trace, double seconds,
             bool alternate, std::vector<OpResult>& untraced,
             std::vector<OpResult>& traced) {
  constexpr std::size_t kMinOps = 3;
  std::uint32_t op = 1;  // 0 was the warm-up
  const auto start = Clock::now();
  for (bool turn = false;; turn = alternate && !turn) {
    const double elapsed = seconds_since(start);
    const bool enough = untraced.size() >= kMinOps &&
                        (!alternate || traced.size() >= kMinOps);
    if (elapsed >= seconds && (enough || elapsed >= 3.0 * seconds)) break;
    trace.set_enabled(turn);
    (turn ? traced : untraced).push_back(workload.run_op(turn, op++));
  }
  trace.set_enabled(false);
}

std::vector<double> field(const std::vector<OpResult>& ops,
                          double OpResult::*member) {
  std::vector<double> out;
  for (const OpResult& op : ops) out.push_back(op.*member);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// `# name  value unit  (...)` for a timing: the gated best, then the
/// median, quartiles and worst of the same samples.
void print_timing(const char* name, const char* unit,
                  const std::vector<double>& samples,
                  bool higher_is_better = false) {
  std::printf(
      "# %-22s %-14.6g %-5s (best of %zu; median %.6g; quartiles %.6g .. "
      "%.6g; worst %.6g)\n",
      name, best(samples, higher_is_better), unit, samples.size(),
      median(samples), quantile(samples, 0.25), quantile(samples, 0.75),
      best(samples, !higher_is_better));
}

int run(const Args& args) {
  Trace trace;
  std::unique_ptr<Workload> workload = make_workload(args, trace);

  std::vector<OpResult> all;
  all.push_back(workload->run_op(false, 0));  // warm-up + reference
  std::vector<OpResult> measured, traced;
  run_for(*workload, trace, args.seconds, args.trace, measured, traced);
  const double rss_mb = peak_rss_mb();
  all.insert(all.end(), measured.begin(), measured.end());
  all.insert(all.end(), traced.begin(), traced.end());

  MetricMap layers;
  if (args.trace) {
    layers = workload->per_layer();
    layers["bench.trace_overhead_ratio"] =
        best(field(traced, &OpResult::wall_s), false) /
        best(field(measured, &OpResult::wall_s), false);
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << trace.to_chrome_json();
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::string failure;
  for (const OpResult& op : all) {
    attempted += op.attempted;
    failed += op.failed;
    if (failure.empty() && !op.failure.empty()) failure = op.failure;
  }
  const std::string run_failure = workload->run_checks();
  if (failure.empty()) failure = run_failure;

  // End-to-end metrics, always from the untraced operations.
  std::vector<double> rates;
  for (const OpResult& op : measured) {
    rates.push_back(op.run_s > 0.0 ? op.work / op.run_s : 0.0);
  }
  const MetricMap outcome = workload->outcome();
  MetricMap e2e;
  e2e["wall_s"] = best(field(measured, &OpResult::wall_s), false);
  e2e["setup_s"] = best(field(measured, &OpResult::setup_s), false);
  e2e["throughput_per_s"] = best(rates, true);
  e2e["peak_rss_mb"] = rss_mb;
  e2e["bits_per_joule"] = outcome.at("bits_per_joule");
  e2e["delivery_ratio"] = outcome.at("delivery_ratio");

  const double failed_ratio =
      attempted > 0 ? static_cast<double>(failed) /
                          static_cast<double>(attempted)
                    : 1.0;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# operations: 1 warm-up + %zu untraced + %zu traced; %.17g "
              "%s per operation; fingerprint %016llx\n",
              measured.size(), traced.size(), all.front().work,
              workload->work_unit(),
              static_cast<unsigned long long>(all.front().fingerprint));
  print_timing("wall_s", "s", field(measured, &OpResult::wall_s));
  print_timing("setup_s", "s", field(measured, &OpResult::setup_s));
  print_timing("run_s", "s", field(measured, &OpResult::run_s));
  print_timing("export_s", "s", field(measured, &OpResult::export_s));
  print_timing(workload->work_unit() == std::string("events")
                   ? "events_per_s"
                   : "points_per_s",
               "1/s", rates, true);
  std::printf("# %-22s %-14.6g MB\n", "peak_rss_mb", rss_mb);
  for (const auto& [name, value] : outcome) {
    std::printf("# %-22s %-14.10g %s\n", name.c_str(), value,
                name == "bits_per_joule" ? "bit/J" : "1");
  }
  std::printf("# %-22s %-14.6g 1      (%llu of %llu operations)\n",
              "failed_ratio", failed_ratio,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!failure.empty()) std::printf("# FAILED: %s\n", failure.c_str());

  bool correct = failed == 0 && run_failure.empty();
  std::string json = "{\"metrics\": {";
  const auto emit = [&](const MetricSpec& spec, double value, bool first) {
    if (!std::isfinite(value)) {
      std::printf("# FAILED: %s is not finite\n", spec.name);
      correct = false;
      value = 0.0;
    }
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
  };
  bool first = true;
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = layers.find(spec.name);
      emit(spec, it == layers.end() ? 0.0 : it->second, first);
      first = false;
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, e2e.at(spec.name), first);
      first = false;
    }
  }
  json += "}, \"correct\": " + std::string(correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
