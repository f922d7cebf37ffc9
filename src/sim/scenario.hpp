// Scenario: a named experiment over the cross-product of parameter axes.
//
// Every figure/table reproduction is structurally the same computation —
// "for each point of a parameter grid, evaluate the model and report a
// row" — so the engine factors that shape out once. A Scenario names its
// axes (the grid), its value columns (what each evaluation reports), and a
// point-evaluation functor. SweepRunner executes the grid (serially or in
// parallel through sim::parallel_for) and collects a ResultTable whose row
// order and contents are independent of the thread count.
//
// The evaluation functor MUST be thread-safe: it may be called for
// different points concurrently. A sweep point carries a seed, not an
// engine: all per-point randomness must come from `SweepPoint::seed()` (the
// seed of a deterministic child stream keyed by the point's flat index),
// through a `util::Rng rng(point.seed())` the functor constructs — never
// from shared mutable state. Points that draw nothing pay for no engine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace braidio::sim {

/// One named parameter axis: an ordered list of grid values, carried as
/// display labels (the evaluation functor indexes the underlying values it
/// captured; the engine only needs labels for reporting).
struct Axis {
  std::string name;
  std::vector<std::string> labels;

  std::size_t size() const { return labels.size(); }

  /// Axis over numeric values rendered with fixed decimals.
  static Axis numeric(std::string name, const std::vector<double>& values,
                      int decimals);
  /// Axis "0", "1", ..., n-1 (for seed/replica axes).
  static Axis indexed(std::string name, std::size_t count);
};

/// What one grid-point evaluation reports back: one formatted cell per
/// declared value column, plus optional raw numbers for post-processing
/// (benches scan these for "max gain" style check lines). `numbers` may be
/// empty or any length; `cells` must match the scenario's value_columns.
struct RunRecord {
  std::vector<std::string> cells;
  std::vector<double> numbers;
};

class Scenario;

/// One point of the sweep grid, handed to the evaluation functor. Carries
/// the point's coordinates and the seed of its private RNG stream.
class SweepPoint {
 public:
  SweepPoint(const Scenario& scenario, std::size_t flat_index,
             std::vector<std::size_t> coords, std::uint64_t master_seed);

  std::size_t flat_index() const { return flat_index_; }

  /// Coordinate (value index) along axis `axis`.
  std::size_t axis_index(std::size_t axis) const;

  /// Display label of this point's value along axis `axis`.
  const std::string& axis_label(std::size_t axis) const;

  /// Deterministic per-point seed (Rng::stream_seed of the sweep master
  /// seed and this point's flat index). A point that draws random numbers
  /// constructs its own `util::Rng rng(point.seed())`.
  std::uint64_t seed() const { return seed_; }

 private:
  const Scenario* scenario_;
  std::size_t flat_index_;
  std::vector<std::size_t> coords_;
  std::uint64_t seed_;
};

/// A declarative experiment: axes x evaluation -> rows.
class Scenario {
 public:
  using EvalFn = std::function<RunRecord(SweepPoint&)>;

  Scenario(std::string name, std::vector<Axis> axes,
           std::vector<std::string> value_columns, EvalFn evaluate);

  const std::string& name() const { return name_; }
  const std::vector<Axis>& axes() const { return axes_; }
  const std::vector<std::string>& value_columns() const {
    return value_columns_;
  }

  /// Product of axis sizes.
  std::size_t point_count() const;

  /// Decompose a flat index (row-major: last axis fastest) into per-axis
  /// coordinates.
  std::vector<std::size_t> coords_of(std::size_t flat_index) const;

  /// Evaluate one grid point (thread-safe if the functor is).
  RunRecord evaluate(SweepPoint& point) const;

 private:
  std::string name_;
  std::vector<Axis> axes_;
  std::vector<std::string> value_columns_;
  EvalFn evaluate_;
};

}  // namespace braidio::sim
