#include "core/coded_candidates.hpp"

#include <algorithm>

#include "mac/fec.hpp"

namespace braidio::core {

namespace {

double residual_ber(const phy::LinkBudget& budget, phy::LinkMode mode,
                    phy::Bitrate rate, double distance_m) {
  return mac::hamming74_residual_ber(budget.ber(mode, rate, distance_m));
}

}  // namespace

bool coded_available(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate, double distance_m) {
  return residual_ber(budget, mode, rate, distance_m) <=
         budget.config().ber_threshold;
}

double coded_range_m(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate) {
  double lo = 0.05, hi = 1000.0;
  if (coded_available(budget, mode, rate, hi)) return hi;
  if (!coded_available(budget, mode, rate, lo)) return 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (coded_available(budget, mode, rate, mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::vector<CodedCandidate> candidates_with_coding(
    const RegimeMap& map, const phy::LinkBudget& budget, double distance_m) {
  std::vector<CodedCandidate> out;
  for (const auto& candidate : map.available_best_rate(distance_m)) {
    out.push_back({candidate, false});
  }
  // Add a coded variant per mode when the uncoded best rate is gone but
  // coding rescues some rate (highest coded-feasible rate wins).
  for (phy::LinkMode mode : phy::kAllLinkModes) {
    if (map.best_rate(mode, distance_m)) continue;  // uncoded still alive
    for (phy::Bitrate rate :
         {phy::Bitrate::M1, phy::Bitrate::k100, phy::Bitrate::k10}) {
      const ModeCandidate* point = map.find(mode, rate);
      if (point == nullptr ||
          !coded_available(budget, mode, rate, distance_m)) {
        continue;
      }
      ModeCandidate coded = *point;
      // Same radio state, fewer delivered bits per second: per-bit costs
      // rise by 1/code_rate. ModeCandidate derives per-bit cost from
      // power/bitrate, so scale the powers to express the coded cost at
      // the same nominal bitrate bookkeeping.
      const double inflate = 1.0 / mac::Hamming74::code_rate();
      coded.tx_power_w *= inflate;
      coded.rx_power_w *= inflate;
      out.push_back({coded, true});
      break;
    }
  }
  return out;
}

double coded_regime_a_limit_m(const RegimeMap& map,
                              const phy::LinkBudget& budget) {
  double limit = map.regime_a_limit_m();
  for (const auto& c : map.lattice()) {
    if (c.mode != phy::LinkMode::Backscatter) continue;
    limit = std::max(limit, coded_range_m(budget, c.mode, c.rate));
  }
  return limit;
}

}  // namespace braidio::core
