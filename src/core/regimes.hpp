// Operating regimes (Sec. 4.1, Fig. 8).
//
// Which links exist at a given separation decides how much carrier-offload
// freedom the endpoints have:
//   Regime A: backscatter available -> the carrier can sit at either end.
//   Regime B: only passive + active -> asymmetry can favor the receiver.
//   Regime C: only active -> no offload, Braidio behaves like Bluetooth.
//
// RegimeMap is the MAC side's view of a radio backend: the capability
// lattice crossed with the channel model, built from a hal::RadioBackend.
#pragma once

#include <optional>
#include <vector>

#include "core/power_table.hpp"
#include "hal/backend.hpp"
#include "util/units.hpp"

namespace braidio::core {

enum class Regime { A, B, C };

const char* to_string(Regime regime);

class RegimeMap {
 public:
  /// Lattice/overheads copied from the declared capability set, channel
  /// borrowed from the backend (which must outlive this map).
  explicit RegimeMap(const hal::RadioBackend& backend);

  /// All (mode, bitrate) candidates whose BER clears the threshold at d.
  std::vector<ModeCandidate> available(double distance_m) const;

  /// Candidates restricted to each mode's best sustainable bitrate at d
  /// (what the probing step of Sec. 4.2 reports).
  std::vector<ModeCandidate> available_best_rate(double distance_m) const;

  Regime regime(double distance_m) const;

  /// Regime boundaries [m]: the largest distances where backscatter
  /// (A->B boundary) and passive-RX (B->C boundary) still operate.
  double regime_a_limit_m() const;
  double regime_b_limit_m() const;

  /// The capability lattice this map plans over.
  const std::vector<ModeCandidate>& lattice() const { return lattice_; }

  /// Lattice lookup; nullptr when unsupported.
  const ModeCandidate* find(phy::LinkMode mode, phy::Bitrate rate) const;

  /// Lattice lookup; throws std::out_of_range when unsupported.
  const ModeCandidate& candidate(phy::LinkMode mode, phy::Bitrate rate) const;

  /// True when the lattice has any point in `mode`.
  bool supports(phy::LinkMode mode) const;

  /// Best / lowest lattice bitrate for a mode at distance d (best also
  /// requires channel availability); nullopt when none qualifies.
  std::optional<phy::Bitrate> best_rate(phy::LinkMode mode,
                                        double distance_m) const;
  std::optional<phy::Bitrate> lowest_rate(phy::LinkMode mode) const;

  /// Switch-in overhead for a mode, from the declared capability set.
  const SwitchOverhead& switch_overhead(phy::LinkMode mode) const;

  /// Sleep-state floor draw of the backing hardware.
  util::Watts sleep_power() const { return sleep_power_; }

  /// The channel physics behind this map.
  const hal::ChannelModel& channel() const { return *channel_; }

 private:
  std::vector<ModeCandidate> lattice_;
  SwitchOverhead overheads_[3];
  util::Watts sleep_power_;
  const hal::ChannelModel* channel_;
};

}  // namespace braidio::core
