// Energy-provenance spans and the attributed energy profile.
//
// The EnergyLedger answers "how many joules per category"; this layer
// answers "which exchange, device, and link mode spent them". Call sites
// open hierarchical RAII scopes:
//
//   BRAIDIO_ENERGY_SPAN(exchange, "braid");
//   BRAIDIO_ENERGY_SPAN(phase, "data");
//   ...
//   ledger.charge(EnergyCategory::ActiveTx, util::Joules(j),
//                 util::Seconds(t));                       // tagged
//
// Every EnergyLedger::charge forwards to obs::post_energy, which records
// (path -> joules, posts) into an EnergyProfile under the current
// thread's span path plus the category name, plus a time-bucketed
// power-draw series keyed by the path's first two segments (typically
// "exchange/device"). The canonical span grammar is
//
//   exchange / [phase /] device / <mode>:<role> / <category>
//
// e.g. "braid/data/device1/active@1M:tx/active-tx" (DESIGN.md section 12).
//
// Paths are interned: a process-wide, append-only table gives every
// sanitized path an id, and a thread-local memo maps (parent id, raw
// label bytes) to the child's id, so a label is sanitized only when a
// thread first meets it under that parent. The memo is an open-addressed
// table keyed on the label's bytes, never its address: a warm push or
// post hashes the label once, takes no lock and builds no string. A
// profile stores its slots and series tracks by id, in flat storage
// sized by the paths it has posted; exporters resolve ids and sort by
// path at export time, so no export depends on the order paths were
// first seen.
//
// Determinism follows the metrics discipline exactly: a profile is a
// plain value owned by one thread; SweepRunner installs a per-point
// profile via ScopedEnergyProfile and merges in flat-index order, so the
// merged profile is byte-identical for any thread count. Outside a scope,
// posts land in a mutex-guarded process-global profile.
//
// Costs: attribution is OFF by default (set_attribution_enabled). When
// on, a push is a memo lookup and a post a memo lookup plus a slot
// update. A Fig. 15-18 fluid point (about 13.5 lookups) spends 0.58-0.67
// us on attribution, down from 1.38-1.66 us when the memo hashed a
// copied string into an unordered_map and mode labels were concatenated
// per span (attribution on minus off, serial, best of 15 passes over the
// 12,000 points, one core of a shared Xeon VM). Disabled cost is one
// relaxed atomic load per charge; with BRAIDIO_OBS=0 the macro and the
// hook compile to nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs_config.hpp"

namespace braidio::obs {

/// Id of an interned attribution path (0 is the empty root path).
using PathId = std::uint32_t;

namespace detail {
extern std::atomic<bool> g_attribution_enabled;
void post_energy_slow(const char* category, double joules,
                      double sim_time_s);
void push_span(const char* label);
void pop_span();
}  // namespace detail

/// Attributed energy totals plus per-key time-bucketed power series.
/// Value semantics, single-thread-owned (see file comment).
class EnergyProfile {
 public:
  struct Slot {
    double joules = 0.0;
    std::uint64_t posts = 0;
  };

  EnergyProfile() = default;

  /// Record `joules` under the '/'-separated attribution `path`. A finite
  /// non-negative `sim_time_s` also feeds the power series bucket for the
  /// path's first two segments; NaN (the "no sim time" sentinel) skips
  /// the series but still counts toward the totals.
  void post(const std::string& path, double joules, double sim_time_s);

  bool empty() const { return leaves_.empty(); }
  double total_joules() const;
  std::uint64_t total_posts() const;

  /// Leaf attribution slots keyed by full path, in sorted path order
  /// (built on each call).
  std::map<std::string, Slot> entries() const;

  /// Joules per time bucket, keyed by the first two path segments
  /// (built on each call).
  std::map<std::string, std::vector<double>> series() const;
  double bucket_seconds() const { return bucket_seconds_; }
  /// Only legal while the profile is empty; bucket must be positive.
  void set_bucket_seconds(double seconds);
  /// Posts whose bucket index exceeded the series cap (series dropped,
  /// totals still counted).
  std::uint64_t series_skipped() const { return series_skipped_; }

  /// Fold `other` in (paths add slot-wise, series add element-wise).
  /// Merging per-point profiles in flat-index order is deterministic.
  void merge(const EnergyProfile& other);

  void clear();

  /// Deterministic JSON document (schema "braidio-energy-profile/v1").
  std::string to_json() const;

  /// Collapsed-stack flame-graph lines: "seg;seg;seg <nanojoules>\n",
  /// one per attribution path, in sorted path order.
  std::string to_collapsed_stack() const;

  /// Chrome trace_event counter tracks ("ph": "C"): one counter per
  /// series key, sampled per bucket, value in watts.
  std::string to_chrome_counters() const;

  /// Indented attribution tree with joules and share of total, for
  /// `braidio_cli profile` and RunReport.
  std::string tree_report() const;

 private:
  friend void detail::post_energy_slow(const char* category, double joules,
                                       double sim_time_s);

  struct Leaf {
    PathId id = 0;
    Slot slot;
  };
  struct Track {
    PathId id = 0;  // the series key's path
    std::vector<double> buckets;
  };

  /// post() by interned path id; `key` is the id of its series key.
  void post_interned(PathId id, PathId key, double joules,
                     double sim_time_s);

  // Flat storage in first-posted order. Small profiles find a path by a
  // linear scan; past a threshold the index maps path id -> position.
  std::vector<Leaf> leaves_;
  std::unordered_map<PathId, std::uint32_t> leaf_index_;
  std::vector<Track> series_;
  std::unordered_map<PathId, std::uint32_t> series_index_;
  double bucket_seconds_ = 1.0;
  std::uint64_t series_skipped_ = 0;
};

// ---------------------------------------------------------------------
// Runtime gate, span stack, and hook entry points.
// ---------------------------------------------------------------------

/// Master runtime gate for energy attribution (default OFF). Always
/// false when BRAIDIO_OBS is compiled out.
inline bool attribution_enabled() {
#if BRAIDIO_OBS_COMPILED
  return detail::g_attribution_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}
void set_attribution_enabled(bool on);

/// RAII attribution scope: pushes `label` onto this thread's span path
/// for its lifetime. A null label (the macro's disabled case) is a no-op;
/// the destructor only pops what the constructor pushed, so toggling the
/// gate mid-scope cannot unbalance the stack.
class EnergySpan {
 public:
  explicit EnergySpan(const char* label) {
#if BRAIDIO_OBS_COMPILED
    if (label != nullptr && attribution_enabled()) {
      detail::push_span(label);
      active_ = true;
    }
#else
    (void)label;
#endif
  }
  ~EnergySpan() {
#if BRAIDIO_OBS_COMPILED
    if (active_) detail::pop_span();
#endif
  }
  EnergySpan(const EnergySpan&) = delete;
  EnergySpan& operator=(const EnergySpan&) = delete;

 private:
  bool active_ = false;
};

/// The profile posts currently land in: the thread's scoped profile if
/// one is installed, else nullptr (posts then go to the process-global
/// profile under its mutex).
EnergyProfile* current_energy_profile();

/// Install `profile` as this thread's post target for the scope's
/// lifetime (used by SweepRunner around each grid-point evaluation).
class ScopedEnergyProfile {
 public:
  explicit ScopedEnergyProfile(EnergyProfile* profile);
  ~ScopedEnergyProfile();
  ScopedEnergyProfile(const ScopedEnergyProfile&) = delete;
  ScopedEnergyProfile& operator=(const ScopedEnergyProfile&) = delete;

 private:
  EnergyProfile* previous_;
};

/// Copy of the process-global profile (posts made outside any scope).
EnergyProfile global_energy_profile_snapshot();
void reset_global_energy_profile();

/// Attribute `joules` to `<current span path>/<category>`. Called by
/// EnergyLedger::charge and the fluid simulators. Compiled out entirely
/// when BRAIDIO_OBS is off; a relaxed load + branch when attribution is
/// disabled at runtime.
inline void post_energy(const char* category, double joules,
                        double sim_time_s) {
#if BRAIDIO_OBS_COMPILED
  if (!detail::g_attribution_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  detail::post_energy_slow(category, joules, sim_time_s);
#else
  (void)category;
  (void)joules;
  (void)sim_time_s;
#endif
}

}  // namespace braidio::obs

// Open an attribution scope named by `label_expr` (a const char*). The
// label expression is NOT evaluated unless attribution is enabled, so
// call sites may pass freshly-built strings (`(prefix + name).c_str()`)
// without paying for them in the common disabled case; EnergySpan copies
// the label before any temporary dies.
#if BRAIDIO_OBS_COMPILED
#define BRAIDIO_ENERGY_SPAN(var, label_expr)                        \
  ::braidio::obs::EnergySpan var(                                   \
      ::braidio::obs::attribution_enabled() ? (label_expr) : nullptr)
#else
#define BRAIDIO_ENERGY_SPAN(var, label_expr) \
  do {                                       \
  } while (0)
#endif
