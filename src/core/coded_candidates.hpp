// Coded operating range of the Braidio links.
//
// Hamming(7,4) (mac/fec) converts SNR margin into range: a link whose raw
// BER is above the 1e-2 threshold can still deliver a residual BER below
// it after decoding, at a 4/7 throughput cost. `bench_ext_fec` reports
// that range per (mode, bitrate), and the Regime A horizon it would give:
// with coded backscatter the carrier could be offloaded to either end out
// to ~2.7 m instead of 2.4 m (default calibration). No engine plans over
// coded links; Eq. 1 sees the uncoded lattice only.
#pragma once

#include "core/regimes.hpp"
#include "phy/link_budget.hpp"

namespace braidio::core {

/// The coded operating range of (mode, rate): largest distance where the
/// Hamming(7,4) residual BER stays under the budget's threshold.
double coded_range_m(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate);

/// True if the coded link works at `distance_m` (residual BER under the
/// threshold).
bool coded_available(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate, double distance_m);

/// Regime-A limit when the map's coded backscatter points count (the
/// extended offload horizon), with the coded ranges taken against
/// `budget`.
double coded_regime_a_limit_m(const RegimeMap& map,
                              const phy::LinkBudget& budget);

}  // namespace braidio::core
