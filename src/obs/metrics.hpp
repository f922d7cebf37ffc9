// Metrics registry: counters and fixed-bucket histograms.
//
// Every metric is a BUILT-IN one (the `Counter` / `Histogram` enums),
// posted by the instrumented simulator layers: an array index, no string
// hashing, no allocation. There are no string-keyed metrics, so no hot
// path can pay for a map lookup per post. Counters live in a fixed
// array, and a histogram's buckets are built on its first observation,
// so a registry that only counts (one per sweep point) allocates nothing
// and merges in sixteen additions. A post costs only what it records:
// the hooks read the thread's registry pointer and post inline, and a
// histogram finds its bucket from the value's binade in a table each
// built-in shares, without a search.
//
// Attribution and determinism: a registry is a plain value owned by ONE
// thread at a time. The sweep engine installs a per-point registry via
// ScopedMetrics before evaluating each grid point, so everything a point's
// evaluation posts lands in that point's registry; SweepRunner then merges
// the per-point registries in flat-index order, which makes the merged
// result byte-identical for any thread count — the same discipline the
// per-point RNG streams use. Outside a sweep, posts fall through to a
// mutex-guarded process-global registry.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs_config.hpp"

namespace braidio::util {
class TablePrinter;
}  // namespace braidio::util

namespace braidio::obs {

/// Built-in counters posted by the instrumented layers.
enum class Counter : std::uint8_t {
  ModeSwitches,    // a HAL radio actually changed (mode, role)
  OffloadPlans,    // OffloadPlanner solved Eq. 1
  Replans,         // a running session recomputed its plan
  Fallbacks,       // braided link fell back to the active mode
  LifetimeRuns,    // fluid lifetime simulations completed
  PacketsTx,       // frames put on the air
  PacketsRx,       // frames that survived the channel
  PacketsDropped,  // frames corrupted in flight
  ArqRetries,      // stop-and-wait retransmissions
  ArqDrops,        // transfers dropped after the retry budget
  EnergyPosts,     // ledger/interval energy postings
  BatteryDeaths,   // batteries that emptied mid-run
  SweepPoints,       // grid points evaluated by the sweep engine
  SweepFailures,     // grid-point evaluations that threw
  FaultActivations,  // scripted fault events fired (sim/faults)
  NetEvents,         // events the network simulator's queue processed
};

inline constexpr std::size_t kCounterCount = 16;

const char* to_string(Counter counter);

/// Built-in fixed-bucket histograms.
enum class Histogram : std::uint8_t {
  EnergyPostJoules,   // magnitude of individual energy postings
  DwellSeconds,       // lengths of mode dwells / replan intervals
  NetLatencySeconds,  // end-to-end origin->hub packet latency (src/net)
};

inline constexpr std::size_t kHistogramCount = 3;

const char* to_string(Histogram histogram);

/// The fixed bucket upper bounds used for a built-in histogram.
const std::vector<double>& bucket_bounds(Histogram histogram);

namespace detail {
/// A bound list plus the index that finds a value's bucket without a
/// search. A double maps to an order-preserving 64-bit key whose top 12
/// bits (sign and exponent) name its binade; `first[k]` is the index of
/// the first bound in binade k or above, and comparisons settle the
/// bounds inside the value's own binade. The result is std::lower_bound's
/// index for every non-NaN double. The built-in lists hold at most one
/// bound per binade, so one compare settles theirs.
struct BucketIndex {
  explicit BucketIndex(std::vector<double> upper_bounds);

  /// The top 12 bits of the value's order-preserving key: its binade.
  static std::size_t binade(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    // Flip every bit of a negative, only the sign bit of a positive.
    const std::uint64_t key =
        bits ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >>
                                           63) |
                (std::uint64_t{1} << 63));
    return static_cast<std::size_t>(key >> 52);
  }

  std::size_t bucket_of(double value) const {
    std::size_t i = first[binade(value)];
    i += edges[i] < value;
    while (edges[i] < value) ++i;  // lists with several bounds a binade
    return i;
  }

  std::vector<double> bounds;  // ascending, finite
  std::vector<double> edges;   // bounds, then +inf
  std::array<std::uint16_t, 4096> first{};
};
}  // namespace detail

/// Fixed-bucket histogram with quantile accessors. Buckets are defined by
/// ascending finite upper bounds; one implicit overflow bucket catches
/// everything beyond the last bound. A value lands in the first bucket
/// whose bound is >= the value (std::lower_bound's index). Single-
/// thread-owned (see file comment); merge requires identical bounds.
class HistogramData {
 public:
  HistogramData() = default;
  explicit HistogramData(std::vector<double> upper_bounds);
  /// A built-in histogram's bounds, sharing its static bucket index.
  explicit HistogramData(Histogram builtin);

  /// Requires bounds (a default-constructed histogram has none).
  void record(double value) {
    if (std::isnan(value)) return;  // NaN carries no information
    buckets_[index_->bucket_of(value)] += 1;
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty

  const std::vector<double>& bounds() const;
  /// bounds().size() + 1 buckets; the last one is the overflow bucket.
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t bucket(std::size_t index) const;

  /// Quantile estimate by linear interpolation inside the owning bucket.
  /// Empty histogram -> 0. Quantiles that land in the overflow bucket
  /// return the maximum observed value (the bucket has no upper bound).
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Fold another histogram in (bounds must match).
  void merge(const HistogramData& other);

  void clear();

 private:
  /// Shared by every copy; the built-in histograms' are static.
  std::shared_ptr<const detail::BucketIndex> index_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A value-semantics registry of metrics. Single-thread-owned; see the
/// file comment for the sweep-merge discipline.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  void add(Counter counter, std::uint64_t n = 1) {
    builtin_counters_[static_cast<std::size_t>(counter)] += n;
  }
  std::uint64_t value(Counter counter) const;
  void observe(Histogram histogram, double value) {
    HistogramData& data =
        builtin_histograms_[static_cast<std::size_t>(histogram)];
    if (data.bucket_count() == 0) [[unlikely]] set_up(histogram);
    data.record(value);
  }
  const HistogramData& histogram(Histogram histogram) const;

  /// Fold `other` in: counters and histograms add.
  void merge(const MetricsRegistry& other);

  void clear();

  /// True when nothing has ever been posted.
  bool empty() const;

  /// Deterministic JSON document (enum order).
  std::string to_json() const;

  /// Rendered table of every non-zero metric: name, type, count/value,
  /// and p50/p95/p99 for histograms.
  util::TablePrinter to_table() const;

 private:
  /// Gives a histogram its built-in bounds at its first observation.
  void set_up(Histogram histogram);

  std::array<std::uint64_t, kCounterCount> builtin_counters_{};
  /// Empty (no bounds) until the histogram's first observe().
  std::array<HistogramData, kHistogramCount> builtin_histograms_;
};

// ---------------------------------------------------------------------
// Hook entry points for instrumented layers.
// ---------------------------------------------------------------------

namespace detail {
/// This thread's scoped registry (ScopedMetrics), or nullptr.
extern constinit thread_local MetricsRegistry* t_metrics;
/// Posts made outside any scope: the global registry, under its mutex.
void count_global(Counter counter, std::uint64_t n);
void observe_global(Histogram histogram, double value);
}  // namespace detail

/// Install `registry` as this thread's post target for the scope's
/// lifetime (used by SweepRunner around each grid-point evaluation).
/// Outside any scope, posts go to the process-global registry under its
/// mutex.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry* registry);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Copy of the process-global registry (posts made outside any scope).
MetricsRegistry global_metrics_snapshot();
void reset_global_metrics();

/// Post to a built-in counter/histogram: straight into the thread's
/// scoped registry. Compiled out entirely when BRAIDIO_OBS is off.
inline void count(Counter counter, std::uint64_t n = 1) {
#if BRAIDIO_OBS_COMPILED
  if (MetricsRegistry* r = detail::t_metrics) {
    r->add(counter, n);
  } else {
    detail::count_global(counter, n);
  }
#else
  (void)counter;
  (void)n;
#endif
}

inline void observe(Histogram histogram, double value) {
#if BRAIDIO_OBS_COMPILED
  if (MetricsRegistry* r = detail::t_metrics) {
    r->observe(histogram, value);
  } else {
    detail::observe_global(histogram, value);
  }
#else
  (void)histogram;
  (void)value;
#endif
}

}  // namespace braidio::obs
