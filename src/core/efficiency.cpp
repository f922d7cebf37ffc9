#include "core/efficiency.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "plan/offload.hpp"

namespace braidio::core {

std::string EfficiencyPoint::ratio_label() const {
  std::ostringstream os;
  if (ratio > 0.2 && ratio < 5.0) {
    // Near-symmetric points keep their decimals (the paper's "0.9524:1").
    os.precision(4);
    os << ratio << ":1";
  } else if (ratio >= 1.0) {
    os << std::llround(ratio) << ":1";
  } else {
    os << "1:" << std::llround(1.0 / ratio);
  }
  return os.str();
}

double EfficiencyRegion::min_ratio() const {
  if (points.empty()) throw std::logic_error("EfficiencyRegion: empty");
  double v = points.front().ratio;
  for (const auto& p : points) v = std::min(v, p.ratio);
  return v;
}

double EfficiencyRegion::max_ratio() const {
  if (points.empty()) throw std::logic_error("EfficiencyRegion: empty");
  double v = points.front().ratio;
  for (const auto& p : points) v = std::max(v, p.ratio);
  return v;
}

double EfficiencyRegion::span_orders_of_magnitude() const {
  return std::log10(max_ratio() / min_ratio());
}

EfficiencyRegion efficiency_region(const RegimeMap& map, double distance_m) {
  EfficiencyRegion region;
  region.distance_m = distance_m;
  region.regime = map.regime(distance_m);
  for (const auto& candidate : map.available(distance_m)) {
    EfficiencyPoint p;
    p.candidate = candidate;
    p.tx_bits_per_joule = 1.0 / candidate.tx_joules_per_bit();
    p.rx_bits_per_joule = 1.0 / candidate.rx_joules_per_bit();
    // TX:RX efficiency ratio == T/R inverted: (1/T)/(1/R) = R/T.
    p.ratio = candidate.rx_joules_per_bit() / candidate.tx_joules_per_bit();
    region.points.push_back(p);
  }
  return region;
}

ProportionalPoint proportional_point(const RegimeMap& map, double distance_m,
                                     double energy_ratio) {
  if (!(energy_ratio > 0.0)) {
    throw std::invalid_argument("proportional_point: ratio must be > 0");
  }
  const auto candidates = map.available(distance_m);
  // Energies only matter through their ratio here.
  const auto plan = plan::OffloadPlanner::plan(candidates, energy_ratio, 1.0);
  ProportionalPoint p;
  p.tx_bits_per_joule = 1.0 / plan.tx_joules_per_bit;
  p.rx_bits_per_joule = 1.0 / plan.rx_joules_per_bit;
  p.plan_summary = plan.summary();
  return p;
}

}  // namespace braidio::core
