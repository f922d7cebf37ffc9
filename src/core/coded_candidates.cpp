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
