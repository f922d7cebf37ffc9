#include "core/regimes.hpp"

#include <algorithm>
#include <stdexcept>

namespace braidio::core {

const char* to_string(Regime regime) {
  switch (regime) {
    case Regime::A: return "A";
    case Regime::B: return "B";
    case Regime::C: return "C";
  }
  return "?";
}

std::vector<ModeCandidate> RegimeMap::available(double distance_m) const {
  std::vector<ModeCandidate> out;
  for (const auto& candidate : lattice()) {
    if (channel_->available(candidate.mode, candidate.rate, distance_m)) {
      out.push_back(candidate);
    }
  }
  return out;
}

std::vector<ModeCandidate> RegimeMap::available_best_rate(
    double distance_m) const {
  std::vector<ModeCandidate> out;
  for (phy::LinkMode mode : phy::kAllLinkModes) {
    if (const auto rate = best_rate(mode, distance_m)) {
      out.push_back(candidate(mode, *rate));
    }
  }
  return out;
}

Regime RegimeMap::regime(double distance_m) const {
  if (best_rate(phy::LinkMode::Backscatter, distance_m)) {
    return Regime::A;
  }
  if (best_rate(phy::LinkMode::PassiveRx, distance_m)) {
    return Regime::B;
  }
  return Regime::C;
}

double RegimeMap::regime_a_limit_m() const {
  double limit = 0.0;
  for (const auto& c : lattice()) {
    if (c.mode != phy::LinkMode::Backscatter) continue;
    limit = std::max(limit, channel_->range_m(c.mode, c.rate));
  }
  return limit;
}

double RegimeMap::regime_b_limit_m() const {
  double limit = 0.0;
  for (const auto& c : lattice()) {
    if (c.mode != phy::LinkMode::PassiveRx) continue;
    limit = std::max(limit, channel_->range_m(c.mode, c.rate));
  }
  return limit;
}

const ModeCandidate& RegimeMap::candidate(phy::LinkMode mode,
                                          phy::Bitrate rate) const {
  const ModeCandidate* point = find(mode, rate);
  if (point == nullptr) {
    throw std::out_of_range("RegimeMap: unsupported mode/rate");
  }
  return *point;
}

std::optional<phy::Bitrate> RegimeMap::best_rate(phy::LinkMode mode,
                                                 double distance_m) const {
  using phy::Bitrate;
  for (Bitrate rate : {Bitrate::M1, Bitrate::k100, Bitrate::k10}) {
    if (find(mode, rate) && channel_->available(mode, rate, distance_m)) {
      return rate;
    }
  }
  return std::nullopt;
}

std::optional<phy::Bitrate> RegimeMap::lowest_rate(phy::LinkMode mode) const {
  using phy::Bitrate;
  for (Bitrate rate : {Bitrate::k10, Bitrate::k100, Bitrate::M1}) {
    if (find(mode, rate)) return rate;
  }
  return std::nullopt;
}

}  // namespace braidio::core
