// Harvest-aware carrier offload.
//
// While the tag end backscatters (or passively receives), the peer's
// carrier is illuminating it — and the same charge pump that demodulates
// can bank that energy (circuits/Harvester, WISP/Moo heritage). Folding
// the harvest credit into Eq. 1's per-bit costs changes the geometry:
// below the break-even distance the tag end's *net* drain goes to zero
// and the achievable TX:RX drain ratio becomes unbounded — a device can
// transmit (or listen) indefinitely on the peer's energy.
#pragma once

#include <vector>

#include "circuits/harvester.hpp"
#include "core/power_table.hpp"
#include "core/regimes.hpp"

namespace braidio::core {

struct HarvestAwareConfig {
  circuits::HarvesterConfig harvester{};
  double carrier_dbm = 13.0;        // the peer's carrier at its antenna
  double freq_hz = 915e6;
  double antenna_gain_dbi = -0.5;
  /// Fraction of harvested power actually banked while also modulating /
  /// detecting (the pump is shared between data and power duty).
  double duty_efficiency = 0.5;
};

/// Power harvested by the non-carrier end at `distance_m` [W].
double harvested_power_w(const HarvestAwareConfig& config, double distance_m);

/// Candidates with the harvest credit applied to the non-carrier end's
/// power (clamped at zero: surplus cannot be exported through Eq. 1).
/// Active-mode entries are untouched (no remote carrier to harvest).
std::vector<ModeCandidate> harvest_adjusted_candidates(
    const RegimeMap& map, double distance_m,
    const HarvestAwareConfig& config = {});

/// Largest distance at which the backscatter tag end is energy-neutral
/// (harvest covers the tag's own draw at the given bitrate); 0 if nowhere.
/// Throws std::out_of_range when the map's lattice lacks backscatter at
/// `rate`.
double tag_break_even_distance_m(const RegimeMap& map, phy::Bitrate rate,
                                 const HarvestAwareConfig& config = {});

}  // namespace braidio::core
