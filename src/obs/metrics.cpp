#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "util/contract.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace braidio::obs {

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::ModeSwitches: return "mode_switches";
    case Counter::OffloadPlans: return "offload_plans";
    case Counter::Replans: return "replans";
    case Counter::Fallbacks: return "fallbacks";
    case Counter::LifetimeRuns: return "lifetime_runs";
    case Counter::PacketsTx: return "packets_tx";
    case Counter::PacketsRx: return "packets_rx";
    case Counter::PacketsDropped: return "packets_dropped";
    case Counter::ArqRetries: return "arq_retries";
    case Counter::ArqDrops: return "arq_drops";
    case Counter::EnergyPosts: return "energy_posts";
    case Counter::BatteryDeaths: return "battery_deaths";
    case Counter::SweepPoints: return "sweep_points";
    case Counter::SweepFailures: return "sweep_failures";
    case Counter::FaultActivations: return "fault_activations";
    case Counter::NetEvents: return "net_events";
  }
  return "?";
}

const char* to_string(Histogram histogram) {
  switch (histogram) {
    case Histogram::EnergyPostJoules: return "energy_post_joules";
    case Histogram::DwellSeconds: return "dwell_seconds";
    case Histogram::NetLatencySeconds: return "net_latency_seconds";
  }
  return "?";
}

namespace {

/// The built-in histograms' bound lists and bucket indexes, one static
/// each, shared by every registry.
const std::shared_ptr<const detail::BucketIndex>& builtin_index(
    Histogram histogram) {
  // Log-spaced decades covering the simulator's dynamic range: energy
  // posts span nJ..kJ, dwells span µs..hours.
  static const auto energy = std::make_shared<const detail::BucketIndex>(
      std::vector<double>{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                          1e-1, 1.0, 1e1, 1e2, 1e3});
  static const auto seconds = std::make_shared<const detail::BucketIndex>(
      std::vector<double>{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1,
                          1e2, 1e3, 1e4});
  // Half-decade resolution where multi-hop delivery latency actually
  // lives (sub-ms airtime up to backoff-dominated tens of seconds).
  static const auto latency = std::make_shared<const detail::BucketIndex>(
      std::vector<double>{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
                          1.0, 3.0, 1e1, 3e1, 1e2, 3e2});
  switch (histogram) {
    case Histogram::EnergyPostJoules: return energy;
    case Histogram::DwellSeconds: return seconds;
    case Histogram::NetLatencySeconds: return latency;
  }
  return seconds;
}

}  // namespace

const std::vector<double>& bucket_bounds(Histogram histogram) {
  return builtin_index(histogram)->bounds;
}

detail::BucketIndex::BucketIndex(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)) {
  BRAIDIO_REQUIRE(!bounds.empty(), "bounds", bounds.size());
  BRAIDIO_REQUIRE(bounds.size() <= std::numeric_limits<std::uint16_t>::max(),
                  "bounds", bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    BRAIDIO_REQUIRE(std::isfinite(bounds[i]), "bound", bounds[i]);
    if (i > 0) {
      BRAIDIO_REQUIRE(bounds[i] > bounds[i - 1], "bound", bounds[i],
                      "previous", bounds[i - 1]);
    }
  }
  edges = bounds;
  edges.push_back(std::numeric_limits<double>::infinity());
  // Keys rise with the bounds, so one pass counts the bounds below each
  // binade. A -0 bound is keyed as +0 (`+ 0.0`), so it never counts as
  // below a +0 value.
  std::size_t below = 0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    while (below < bounds.size() && binade(bounds[below] + 0.0) < k) {
      ++below;
    }
    first[k] = static_cast<std::uint16_t>(below);
  }
}

HistogramData::HistogramData(std::vector<double> upper_bounds)
    : index_(std::make_shared<const detail::BucketIndex>(
          std::move(upper_bounds))),
      buckets_(index_->bounds.size() + 1, 0) {}

HistogramData::HistogramData(Histogram builtin)
    : index_(builtin_index(builtin)),
      buckets_(index_->bounds.size() + 1, 0) {}

const std::vector<double>& HistogramData::bounds() const {
  static const std::vector<double> kNone;
  return index_ ? index_->bounds : kNone;
}

double HistogramData::min() const { return count_ == 0 ? 0.0 : min_; }

double HistogramData::max() const { return count_ == 0 ? 0.0 : max_; }

std::uint64_t HistogramData::bucket(std::size_t index) const {
  BRAIDIO_REQUIRE(index < buckets_.size(), "bucket", index);
  return buckets_[index];
}

double HistogramData::quantile(double q) const {
  BRAIDIO_REQUIRE(q >= 0.0 && q <= 1.0, "q", q);
  if (count_ == 0) return 0.0;
  // Rank of the q-th sample (1-based, ceil), then walk the buckets.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (seen + buckets_[b] < rank) {
      seen += buckets_[b];
      continue;
    }
    const std::vector<double>& bounds = index_->bounds;
    if (b == bounds.size()) return max();  // overflow bucket
    const double hi = bounds[b];
    const double lo = b == 0 ? std::min(min(), hi) : bounds[b - 1];
    const double within = (static_cast<double>(rank - seen)) /
                          static_cast<double>(buckets_[b]);
    // Clamp into the observed range so degenerate cases (single sample,
    // all samples in one bucket) report exact values, not bucket edges.
    return std::clamp(lo + within * (hi - lo), min(), max());
  }
  return max();
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count_ == 0 && !other.index_) return;
  if (!index_) {
    *this = other;
    return;
  }
  BRAIDIO_REQUIRE(index_ == other.index_ || bounds() == other.bounds(),
                  "bounds", bounds().size(), "other", other.bounds().size());
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void HistogramData::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

std::uint64_t MetricsRegistry::value(Counter counter) const {
  return builtin_counters_[static_cast<std::size_t>(counter)];
}

void MetricsRegistry::set_up(Histogram histogram) {
  builtin_histograms_[static_cast<std::size_t>(histogram)] =
      HistogramData(histogram);
}

const HistogramData& MetricsRegistry::histogram(
    Histogram histogram) const {
  const auto h = static_cast<std::size_t>(histogram);
  if (!builtin_histograms_[h].bounds().empty()) {
    return builtin_histograms_[h];
  }
  // Never observed: an empty histogram with the built-in bounds.
  static const auto kUnobserved = [] {
    std::array<HistogramData, kHistogramCount> unobserved;
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
      unobserved[i] = HistogramData(static_cast<Histogram>(i));
    }
    return unobserved;
  }();
  return kUnobserved[h];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    builtin_counters_[c] += other.builtin_counters_[c];
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    builtin_histograms_[h].merge(other.builtin_histograms_[h]);
  }
}

void MetricsRegistry::clear() { *this = MetricsRegistry(); }

bool MetricsRegistry::empty() const {
  for (const auto v : builtin_counters_) {
    if (v != 0) return false;
  }
  for (const auto& h : builtin_histograms_) {
    if (h.count() != 0) return false;
  }
  return true;
}

namespace {

void histogram_json(std::ostringstream& os, const HistogramData& h) {
  os << "{\"count\": " << h.count()
     << ", \"sum\": " << util::format_engineering(h.sum(), 17)
     << ", \"min\": " << util::format_engineering(h.min(), 17)
     << ", \"max\": " << util::format_engineering(h.max(), 17)
     << ", \"p50\": " << util::format_engineering(h.p50(), 17)
     << ", \"p95\": " << util::format_engineering(h.p95(), 17)
     << ", \"p99\": " << util::format_engineering(h.p99(), 17)
     << ", \"buckets\": [";
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    os << (b ? ", " : "") << h.bucket(b);
  }
  os << "]}";
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (builtin_counters_[c] == 0) continue;
    os << (first ? "" : ", ") << '"'
       << to_string(static_cast<Counter>(c))
       << "\": " << builtin_counters_[c];
    first = false;
  }
  os << "},\n  \"histograms\": {";
  first = true;
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    if (builtin_histograms_[h].count() == 0) continue;
    os << (first ? "" : ", ") << "\n    \""
       << to_string(static_cast<Histogram>(h)) << "\": ";
    histogram_json(os, builtin_histograms_[h]);
    first = false;
  }
  os << "}\n}\n";
  return os.str();
}

util::TablePrinter MetricsRegistry::to_table() const {
  util::TablePrinter table(
      {"metric", "kind", "count", "value", "p50", "p95", "p99"});
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (builtin_counters_[c] == 0) continue;
    table.add_row({to_string(static_cast<Counter>(c)), "counter",
                   std::to_string(builtin_counters_[c]), "-", "-", "-",
                   "-"});
  }
  for (std::size_t h = 0; h < kHistogramCount; ++h) {
    const HistogramData& data = builtin_histograms_[h];
    if (data.count() == 0) continue;
    table.add_row({to_string(static_cast<Histogram>(h)), "histogram",
                   std::to_string(data.count()),
                   util::format_engineering(data.sum(), 3),
                   util::format_engineering(data.p50(), 3),
                   util::format_engineering(data.p95(), 3),
                   util::format_engineering(data.p99(), 3)});
  }
  return table;
}

// ---------------------------------------------------------------------
// Hook plumbing: thread-local scoped registry + global fallback.
// ---------------------------------------------------------------------

namespace detail {
constinit thread_local MetricsRegistry* t_metrics = nullptr;
}  // namespace detail

namespace {

std::mutex& global_mu() {
  static std::mutex mu;
  return mu;
}

MetricsRegistry& global_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace

ScopedMetrics::ScopedMetrics(MetricsRegistry* registry)
    : previous_(detail::t_metrics) {
  detail::t_metrics = registry;
}

ScopedMetrics::~ScopedMetrics() { detail::t_metrics = previous_; }

MetricsRegistry global_metrics_snapshot() {
  std::lock_guard<std::mutex> lock(global_mu());
  return global_registry();
}

void reset_global_metrics() {
  std::lock_guard<std::mutex> lock(global_mu());
  global_registry().clear();
}

namespace detail {

void count_global(Counter counter, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(global_mu());
  global_registry().add(counter, n);
}

void observe_global(Histogram histogram, double value) {
  std::lock_guard<std::mutex> lock(global_mu());
  global_registry().observe(histogram, value);
}

}  // namespace detail

}  // namespace braidio::obs
