// Fluid workload: the Fig. 15-18 lifetime model over the device catalog.
//
// One operation is one sweep: construct a core::LifetimeSimulator on the
// braidio backend (the set-up), evaluate 2 traffic patterns x 60 distances
// x 10 RX x 10 TX devices on a two-thread SweepRunner with energy
// attribution on, as the figure benches run it, and export the result
// table (JSON and CSV) and the merged energy profile (JSON). Each point
// computes gain_vs_bluetooth, gain_vs_best_mode and the braidio() bits.
//
// The fluid model draws no random numbers; the seed is the sweep's master
// seed, which SweepRunner turns into one RNG stream per point.
//
// Checks: every point's numbers are finite and positive and match the
// first sweep of the run byte for byte, and the cells EXPERIMENTS.md quotes
// for Figs. 15-18 match their quoted digits.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "energy/device_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace bx = braidio;

constexpr unsigned kThreads = 2;
constexpr std::size_t kDistances = 60;  // 0.1 m .. 6.0 m
constexpr std::size_t kDevices = 10;

/// Fig. 15 column 1 (the Fuel Band transmitting, RX down the catalog) as
/// the paper prints it, for paper_gap_log10.
constexpr double kPaperFig15Column1[kDevices] = {
    1.43, 2.37, 3.28, 5.96, 21.4, 33.7, 42.3, 214, 236, 299};

/// One quoted cell: pattern, distance, TX and RX catalog indices, which
/// gain (0 = vs Bluetooth, 1 = vs best mode), and the digits quoted.
struct Quoted {
  const char* figure;
  bool bidirectional;
  double distance_m;
  std::size_t tx;
  std::size_t rx;
  int column;
  const char* value;
};

/// The Figs. 15-18 values EXPERIMENTS.md quotes for this model ("Ours").
constexpr Quoted kQuoted[] = {
    {"fig15", false, 0.5, 0, 0, 0, "1.47"},
    {"fig15", false, 0.5, 0, 1, 0, "2.09"},
    {"fig15", false, 0.5, 0, 2, 0, "2.93"},
    {"fig15", false, 0.5, 0, 3, 0, "5.33"},
    {"fig15", false, 0.5, 0, 4, 0, "19.2"},
    {"fig15", false, 0.5, 0, 5, 0, "32"},
    {"fig15", false, 0.5, 0, 6, 0, "38.2"},
    {"fig15", false, 0.5, 0, 7, 0, "195"},
    {"fig15", false, 0.5, 0, 8, 0, "211"},
    {"fig15", false, 0.5, 0, 9, 0, "281"},
    {"fig16", false, 0.5, 0, 9, 1, "1.00"},
    {"fig17", true, 0.5, 0, 9, 0, "270"},
    {"fig17", true, 0.5, 4, 4, 0, "1.43"},
    {"fig18", false, 0.3, 4, 2, 0, "6.6"},
    {"fig18", false, 5.5, 4, 2, 0, "1.0"},
};

/// Half a unit in the last quoted digit.
double quoted_tolerance(const char* digits) {
  const std::string s(digits);
  const auto dot = s.find('.');
  const int decimals =
      dot == std::string::npos ? 0 : static_cast<int>(s.size() - dot - 1);
  return 0.5 * std::pow(10.0, -decimals) + 1e-12;
}

class FluidWorkload final : public Workload {
 public:
  FluidWorkload(std::uint64_t seed, Trace& trace)
      : seed_(seed),
        trace_(trace),
        backend_(bx::backends::braidio_backend()),
        catalog_(bx::energy::device_catalog()) {
    if (catalog_.size() != kDevices) {
      throw std::runtime_error("device catalog is not 10 devices");
    }
    for (std::size_t i = 1; i <= kDistances; ++i) {
      distances_.push_back(static_cast<double>(i) / 10.0);
    }
    for (const auto& device : catalog_) {
      joules_.push_back(
          bx::util::to_joules(bx::util::WattHours(device.battery_wh))
              .value());
      labels_.push_back(device.name);
    }
    bx::obs::set_attribution_enabled(true);
  }

  const char* work_unit() const override { return "points"; }

  OpResult run_op(bool traced, std::uint32_t op) override {
    trace_.set_op(op);
    OpResult result;
    result.attempted = point_count();
    std::optional<bx::sim::ResultTable> table;
    std::string json, csv, profile;
    const auto start = Clock::now();
    try {
      const Span op_span(trace_, "bench.op");
      std::optional<bx::core::LifetimeSimulator> model;
      {
        const Span span(trace_, "core.lifetime.ctor");
        model.emplace(backend_);
      }
      const bx::sim::Scenario scenario = make_scenario(*model, nullptr);
      result.setup_s = seconds_since(start);

      const auto run_start = Clock::now();
      {
        const Span span(trace_, "sim.sweep.run");
        table.emplace(bx::sim::SweepRunner({kThreads, seed_}).run(scenario));
      }
      result.run_s = seconds_since(run_start);

      const auto export_start = Clock::now();
      {
        const Span span(trace_, "sim.table_export");
        json = table->to_json();
        csv = table->to_csv();
      }
      {
        const Span span(trace_, "obs.profile_export");
        profile = table->energy_profile().to_json();
      }
      result.export_s = seconds_since(export_start);
    } catch (const std::exception& e) {
      result.failed = result.attempted;
      result.failure = e.what();
      result.wall_s = seconds_since(start);
      return result;
    }
    result.wall_s = seconds_since(start);
    result.work = static_cast<double>(table->row_count());

    Fingerprint f;
    f.add(json);
    f.add(csv);
    f.add(profile);
    result.fingerprint = f.value();
    check_points(*table, result);
    if (traced) {
      traced_ops_.push_back({op, table->total_wall_seconds()});
      for (const auto& m : table->metrics()) {
        point_us_.push_back(m.wall_seconds * 1e6);
      }
    }
    export_bytes_ = json.size() + csv.size() + profile.size();
    profile_leaves_ = table->energy_profile().entries().size();
    const auto& registry = table->metrics_registry();
    energy_posts_ = registry.value(bx::obs::Counter::EnergyPosts);
    mode_switches_ = registry.value(bx::obs::Counter::ModeSwitches);
    return result;
  }

  MetricMap outcome() const override {
    MetricMap m;
    m["bits_per_joule"] = bits_per_joule_;
    // The fluid model is lossless: every planned bit is delivered.
    m["delivery_ratio"] = 1.0;
    m["paper_gap_log10"] = paper_gap_log10_;
    return m;
  }

  std::string run_checks() const override { return quoted_failure_; }

  MetricMap per_layer() override;

 private:
  struct TracedOp {
    std::uint32_t op = 0;
    double sweep_inner_s = 0.0;
  };

  std::size_t point_count() const {
    return 2 * kDistances * kDevices * kDevices;
  }

  std::size_t flat_index(bool bidirectional, std::size_t distance,
                         std::size_t rx, std::size_t tx) const {
    return ((static_cast<std::size_t>(bidirectional) * kDistances +
             distance) * kDevices + rx) * kDevices + tx;
  }

  /// The sweep. With `eval_s`, each point's evaluation time is stored at
  /// its flat index (serial sweeps only).
  bx::sim::Scenario make_scenario(const bx::core::LifetimeSimulator& model,
                                  std::vector<double>* eval_s) const {
    std::vector<bx::sim::Axis> axes{
        {"pattern", {"uni", "bi"}},
        bx::sim::Axis::numeric("d [m]", distances_, 1),
        {"RX", labels_},
        {"TX", labels_}};
    return bx::sim::Scenario(
        "fluid_sweep", std::move(axes),
        {"gain_vs_bt", "gain_vs_best", "bits"},
        [this, &model, eval_s](bx::sim::SweepPoint& p) {
          if (eval_s == nullptr) return evaluate(model, p);
          const auto start = Clock::now();
          bx::sim::RunRecord record = evaluate(model, p);
          (*eval_s)[p.flat_index()] = seconds_since(start);
          return record;
        });
  }

  bx::sim::RunRecord evaluate(const bx::core::LifetimeSimulator& model,
                              bx::sim::SweepPoint& p) const {
    const auto& rx = catalog_[p.axis_index(2)];
    const auto& tx = catalog_[p.axis_index(3)];
    bx::core::LifetimeConfig config;
    config.bidirectional = p.axis_index(0) == 1;
    config.distance_m = distances_[p.axis_index(1)];
    const double e1 = joules_[p.axis_index(3)];
    const double e2 = joules_[p.axis_index(2)];
    const double vs_bt = model.gain_vs_bluetooth(tx, rx, config);
    const double vs_best = model.gain_vs_best_mode(tx, rx, config);
    const double bits =
        model.braidio(bx::util::Joules(e1), bx::util::Joules(e2), config)
            .bits;
    bx::sim::RunRecord record;
    record.cells = {bx::util::format_engineering(vs_bt, 3),
                    bx::util::format_engineering(vs_best, 3),
                    bx::util::format_engineering(bits, 4)};
    record.numbers = {vs_bt, vs_best, bits, e1 + e2};
    return record;
  }

  /// Per-point checks against the first sweep; the first sweep also sets
  /// the deterministic outcome and runs the quoted-value checks.
  void check_points(const bx::sim::ResultTable& table, OpResult& result) {
    const bool first = reference_.empty();
    double bits = 0.0, joules = 0.0;
    for (std::size_t i = 0; i < table.row_count(); ++i) {
      const std::vector<double>& numbers = table.record(i).numbers;
      bool ok = numbers.size() == 4;
      for (const double v : numbers) ok = ok && std::isfinite(v) && v > 0.0;
      if (first) {
        reference_.push_back(numbers);
      } else if (numbers != reference_[i]) {
        ok = false;
      }
      if (!ok) {
        if (result.failed == 0) {
          result.failure = "point " + std::to_string(i) +
                           " is not finite and positive, or differs from "
                           "the first sweep";
        }
        ++result.failed;
        continue;
      }
      bits += numbers[2];
      joules += numbers[3];
    }
    if (!first) return;
    bits_per_joule_ = joules > 0.0 ? bits / joules : 0.0;
    double gap = 0.0;
    for (std::size_t rx = 0; rx < kDevices; ++rx) {
      const double ours = reference_[flat_index(false, 4, rx, 0)][0];
      gap += std::abs(std::log10(ours / kPaperFig15Column1[rx]));
    }
    paper_gap_log10_ = gap / static_cast<double>(kDevices);
    for (const Quoted& q : kQuoted) {
      const auto distance =
          static_cast<std::size_t>(std::lround(q.distance_m * 10.0)) - 1;
      const std::size_t i = flat_index(q.bidirectional, distance, q.rx, q.tx);
      const double value = reference_[i][static_cast<std::size_t>(q.column)];
      if (std::abs(value - std::stod(q.value)) > quoted_tolerance(q.value)) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "%s %s -> %s at %.1f m: %.6g, EXPERIMENTS.md quotes %s",
                      q.figure, catalog_[q.tx].name.c_str(),
                      catalog_[q.rx].name.c_str(), q.distance_m, value,
                      q.value);
        if (quoted_failure_.empty()) quoted_failure_ = line;
      }
    }
    // Fig. 16: "up to 1.71x" over the unidirectional 0.5 m matrix.
    double fig16_max = 0.0;
    for (std::size_t rx = 0; rx < kDevices; ++rx) {
      for (std::size_t tx = 0; tx < kDevices; ++tx) {
        fig16_max =
            std::max(fig16_max, reference_[flat_index(false, 4, rx, tx)][1]);
      }
    }
    if (std::abs(fig16_max - 1.71) > quoted_tolerance("1.71") &&
        quoted_failure_.empty()) {
      quoted_failure_ = "fig16 maximum " + std::to_string(fig16_max) +
                        ", EXPERIMENTS.md quotes 1.71";
    }
  }

  std::uint64_t seed_;
  Trace& trace_;
  const bx::hal::RadioBackend& backend_;
  const std::vector<bx::energy::DeviceSpec>& catalog_;
  std::vector<double> distances_;
  std::vector<double> joules_;
  std::vector<std::string> labels_;

  std::vector<std::vector<double>> reference_;  // first sweep, per point
  double bits_per_joule_ = 0.0;
  double paper_gap_log10_ = 0.0;
  std::string quoted_failure_;

  std::vector<TracedOp> traced_ops_;
  std::vector<double> point_us_;  // per-point wall of the traced sweeps
  std::uint64_t export_bytes_ = 0;
  std::uint64_t profile_leaves_ = 0;
  std::uint64_t energy_posts_ = 0;
  std::uint64_t mode_switches_ = 0;
};

MetricMap FluidWorkload::per_layer() {
  MetricMap m;
  const auto totals = trace_.totals();
  std::vector<double> sweep, merge, table_export, profile_export;
  for (const TracedOp& t : traced_ops_) {
    const auto it = totals.find(t.op);
    if (it == totals.end()) continue;
    const auto span = [&](const char* name) {
      const auto found = it->second.find(name);
      return found == it->second.end() ? 0.0 : found->second;
    };
    sweep.push_back(span("sim.sweep.run"));
    merge.push_back(span("sim.sweep.run") - t.sweep_inner_s);
    table_export.push_back(span("sim.table_export"));
    profile_export.push_back(span("obs.profile_export"));
  }

  // One serial sweep splits SweepRunner's time into point evaluation
  // (the core model) and the engine's own per-point work.
  const bx::core::LifetimeSimulator model(backend_);
  std::vector<double> eval_s(point_count(), 0.0);
  const bx::sim::Scenario serial = make_scenario(model, &eval_s);
  const auto serial_start = Clock::now();
  bx::sim::SweepRunner({1, seed_}).run(serial);
  const double serial_s = seconds_since(serial_start);
  double eval_total = 0.0;
  for (const double s : eval_s) eval_total += s;

  const double points = static_cast<double>(point_count());
  const double stream_s = time_streams(seed_, point_count());
  m["util.rng.stream_s"] = stream_s;
  m["util.rng.ns_per_stream"] = stream_s * 1e9 / points;
  m["core.lifetime.eval_s"] = eval_total;
  m["core.offload.ns_per_plan"] = probe_offload_ns(distances_);
  m["core.paper_gap_log10"] = paper_gap_log10_;
  m["sim.points"] = points;
  m["sim.sweep.run_s"] = median(sweep);
  m["sim.sweep.overhead_s"] = serial_s - eval_total;
  m["sim.sweep.merge_s"] = median(merge);
  m["sim.point_p50_us"] = quantile(point_us_, 0.50);
  m["sim.point_p99_us"] = quantile(point_us_, 0.99);
  m["sim.point_samples"] = static_cast<double>(point_us_.size());
  m["sim.table_export_s"] = median(table_export);
  m["obs.profile_export_s"] = median(profile_export);
  m["obs.export_bytes"] = static_cast<double>(export_bytes_);
  m["obs.profile_leaves"] = static_cast<double>(profile_leaves_);
  m["energy.posts"] = static_cast<double>(energy_posts_);
  m["hal.mode_switches"] = static_cast<double>(mode_switches_);
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_fluid_workload(std::uint64_t seed,
                                              Trace& trace) {
  return std::make_unique<FluidWorkload>(seed, trace);
}

}  // namespace perfbench
