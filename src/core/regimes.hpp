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
  /// Capability set and channel borrowed from the backend, which must
  /// outlive this map.
  explicit RegimeMap(const hal::RadioBackend& backend)
      : caps_(&backend.caps()), channel_(&backend.channel()) {}

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

  /// The declared capability set this map plans over.
  const hal::Capabilities& caps() const { return *caps_; }
  const std::vector<ModeCandidate>& lattice() const { return caps_->lattice; }

  /// Lattice lookup; nullptr when unsupported.
  const ModeCandidate* find(phy::LinkMode mode, phy::Bitrate rate) const {
    return caps_->find(mode, rate);
  }

  /// Lattice lookup; throws std::out_of_range when unsupported.
  const ModeCandidate& candidate(phy::LinkMode mode, phy::Bitrate rate) const;

  /// True when the lattice has any point in `mode`.
  bool supports(phy::LinkMode mode) const { return caps_->supports(mode); }

  /// Best / lowest lattice bitrate for a mode at distance d (best also
  /// requires channel availability); nullopt when none qualifies.
  std::optional<phy::Bitrate> best_rate(phy::LinkMode mode,
                                        double distance_m) const;
  std::optional<phy::Bitrate> lowest_rate(phy::LinkMode mode) const;

  /// Sleep-state floor draw of the backing hardware.
  util::Watts sleep_power() const { return caps_->sleep_power; }

  /// The channel physics behind this map.
  const hal::ChannelModel& channel() const { return *channel_; }

 private:
  const hal::Capabilities* caps_;
  const hal::ChannelModel* channel_;
};

}  // namespace braidio::core
