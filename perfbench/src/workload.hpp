// The benchmark's workload interface and the small helpers the workloads
// share (medians, fingerprints, metric maps).
//
// A workload runs one *operation* at a time: a full network replica, or a
// full fluid-model sweep. main.cpp repeats operations for the requested
// number of seconds and reports statistics over them; the workload checks
// each operation's outputs and fingerprints its deterministic results, so
// two operations of the same code and seed must agree byte for byte.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one operation did and how long each phase took.
struct OpResult {
  double setup_s = 0.0;   // constructing simulators
  double run_s = 0.0;     // simulating (events or grid points)
  double export_s = 0.0;  // serialising results
  double wall_s = 0.0;    // the whole operation
  double work = 0.0;      // events (net) or grid points (fluid) simulated
  std::uint64_t attempted = 0;  // replicas or grid points attempted
  std::uint64_t failed = 0;     // of those: threw or failed a check
  std::uint64_t fingerprint = 0;
  std::string failure;  // first failed check, for the report
};

/// Metric values by name; a workload leaves out the layers it never calls
/// and main.cpp reports those as 0.
using MetricMap = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Run one operation. With `traced`, spans land in the shared Trace
  /// under operation id `op`.
  virtual OpResult run_op(bool traced, std::uint32_t op) = 0;

  /// Deterministic end-to-end figures of the last operation
  /// (bits_per_joule, delivery_ratio, paper_gap_log10).
  virtual MetricMap outcome() const = 0;

  /// Per-layer metrics from the traced operations (and the layer probes,
  /// which run here).
  virtual MetricMap per_layer() = 0;

  /// Run-level checks beyond the per-operation ones; returns the first
  /// failure, or "" when every check holds.
  virtual std::string run_checks() const { return ""; }

  /// What `OpResult::work` counts ("events" or "points").
  virtual const char* work_unit() const = 0;
};

std::unique_ptr<Workload> make_net_workload(const std::string& name,
                                            std::uint64_t seed,
                                            Trace& trace);
std::unique_ptr<Workload> make_fluid_workload(std::uint64_t seed,
                                              Trace& trace);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

/// FNV-1a over a byte stream: the determinism fingerprint.
class Fingerprint {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
