#include "sim/scenario.hpp"

#include <utility>

#include "util/contract.hpp"
#include "util/table.hpp"

namespace braidio::sim {

Axis Axis::numeric(std::string name, const std::vector<double>& values,
                   int decimals) {
  Axis axis;
  axis.name = std::move(name);
  axis.labels.reserve(values.size());
  for (double v : values) {
    axis.labels.push_back(util::format_fixed(v, decimals));
  }
  return axis;
}

Axis Axis::indexed(std::string name, std::size_t count) {
  Axis axis;
  axis.name = std::move(name);
  axis.labels.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    axis.labels.push_back(std::to_string(i));
  }
  return axis;
}

SweepPoint::SweepPoint(const Scenario& scenario, std::size_t flat_index,
                       std::vector<std::size_t> coords,
                       std::uint64_t master_seed)
    : scenario_(&scenario),
      flat_index_(flat_index),
      coords_(std::move(coords)),
      seed_(util::Rng::stream_seed(master_seed, flat_index)) {}

std::size_t SweepPoint::axis_index(std::size_t axis) const {
  BRAIDIO_REQUIRE(axis < coords_.size(), "axis", axis);
  return coords_[axis];
}

const std::string& SweepPoint::axis_label(std::size_t axis) const {
  return scenario_->axes()[axis].labels[axis_index(axis)];
}

Scenario::Scenario(std::string name, std::vector<Axis> axes,
                   std::vector<std::string> value_columns, EvalFn evaluate)
    : name_(std::move(name)),
      axes_(std::move(axes)),
      value_columns_(std::move(value_columns)),
      evaluate_(std::move(evaluate)) {
  BRAIDIO_REQUIRE(!axes_.empty(), "axes", axes_.size());
  BRAIDIO_REQUIRE(static_cast<bool>(evaluate_), "name", name_.c_str());
  for (const auto& axis : axes_) {
    BRAIDIO_REQUIRE(!axis.labels.empty(), "axis", axis.name.c_str());
  }
}

std::size_t Scenario::point_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.size();
  return n;
}

std::vector<std::size_t> Scenario::coords_of(std::size_t flat_index) const {
  BRAIDIO_REQUIRE(flat_index < point_count(), "flat_index", flat_index);
  std::vector<std::size_t> coords(axes_.size(), 0);
  std::size_t rest = flat_index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    coords[a] = rest % axes_[a].size();
    rest /= axes_[a].size();
  }
  return coords;
}

RunRecord Scenario::evaluate(SweepPoint& point) const {
  RunRecord record = evaluate_(point);
  BRAIDIO_ENSURE(record.cells.size() == value_columns_.size(), "cells",
                 record.cells.size(), "columns", value_columns_.size());
  return record;
}

}  // namespace braidio::sim
