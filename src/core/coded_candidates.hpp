// Coded operating points for the offload planner.
//
// Hamming(7,4)+interleaving (mac/fec) converts SNR margin into range: a
// link whose raw BER is above the 1e-2 threshold can still deliver a
// residual BER below it after decoding, at a 4/7 throughput cost. Exposing
// "coded backscatter@10k" etc. as additional ModeCandidates lets Eq. 1
// braid them like any other mode — which *extends Regime A*: the carrier
// can be offloaded to either end out to the coded backscatter limit
// (~2.7 m instead of 2.4 m with the default calibration).
#pragma once

#include <vector>

#include "core/power_table.hpp"
#include "core/regimes.hpp"
#include "phy/link_budget.hpp"

namespace braidio::core {

struct CodedCandidate {
  ModeCandidate candidate;  // per-bit powers at the *effective* bitrate
  bool coded = false;
};

/// The coded operating range of (mode, rate): largest distance where the
/// Hamming(7,4) residual BER stays under the budget's threshold.
double coded_range_m(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate);

/// True if the coded link works at `distance_m` (residual BER under the
/// threshold).
bool coded_available(const phy::LinkBudget& budget, phy::LinkMode mode,
                     phy::Bitrate rate, double distance_m);

/// Candidate set at a distance including coded variants where (a) the
/// map's uncoded lattice points of a mode are all dead and (b) a coded
/// lattice point still clears the threshold. Coded variants keep each
/// end's power but deliver code_rate * bitrate, so their per-bit costs
/// are 7/4 of the uncoded entry. `budget` supplies the BER threshold the
/// coded residual must clear; the map supplies the lattice and the
/// uncoded channel answers.
std::vector<CodedCandidate> candidates_with_coding(
    const RegimeMap& map, const phy::LinkBudget& budget, double distance_m);

/// Regime-A limit when the map's coded backscatter points count (the
/// extended offload horizon), with the coded ranges taken against
/// `budget`.
double coded_regime_a_limit_m(const RegimeMap& map,
                              const phy::LinkBudget& budget);

}  // namespace braidio::core
