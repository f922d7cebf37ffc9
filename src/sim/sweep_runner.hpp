// SweepRunner: executes a Scenario's parameter grid with sim::parallel_for.
//
// Determinism guarantee: grid point i is always evaluated with the RNG
// child stream `util::Rng::stream(options.seed, i)` and its record is
// always stored at row i, so the resulting ResultTable's data is
// byte-identical for any thread count (1, 2, N). Only the metrics (wall
// times) differ between runs.
#pragma once

#include <cstdint>
#include <string>

#include "sim/result_table.hpp"
#include "sim/scenario.hpp"

namespace braidio::sim {

struct SweepOptions {
  /// Total threads evaluating points. 0 = resolve at run time via
  /// `default_thread_count()` (BRAIDIO_THREADS env var, else
  /// hardware concurrency); 1 = serial on the calling thread.
  unsigned threads = 0;
  /// Master seed; every grid point gets child stream `Rng::stream(seed, i)`.
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
};

/// Parse a `--threads N` / `--threads=N` option from a bench/example
/// command line. Returns 0 (= use the default) when absent or malformed
/// (see `parse_thread_count`).
unsigned threads_from_cli(int argc, char** argv);

/// Parse a `--trace-out FILE` / `--trace-out=FILE` option from a
/// bench/example command line. Returns "" when absent. Callers enable the
/// obs tracer when this is non-empty and write the Chrome trace JSON to
/// the file on exit (see sim::write_trace_json).
std::string trace_out_from_cli(int argc, char** argv);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  const SweepOptions& options() const { return options_; }

  /// Evaluate every grid point and collect the ordered ResultTable.
  /// The scenario's evaluation functor runs concurrently when threads > 1;
  /// it must be thread-safe (see scenario.hpp).
  ResultTable run(const Scenario& scenario) const;

 private:
  SweepOptions options_;
};

}  // namespace braidio::sim
