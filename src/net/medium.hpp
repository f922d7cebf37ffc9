// Shared-medium model: who is on the air, and what that costs everyone
// else.
//
// The per-link ChannelModel answers "what SNR does this link see in
// isolation"; the medium answers the two network-level questions layered
// on top of it:
//   * CCA — is the aggregate ambient power a listening node measures
//     below its radio's threshold (hal::IRadio::cca_clear's rule)?
//     ambient_below() answers from tabulated bounds on each interferer's
//     path gain and sums the exact ambient power only when the bounds
//     straddle the threshold, so every verdict equals
//     `ambient_dbm(...) < threshold` (DESIGN.md §15);
//   * interference — the SNR penalty a receiver eats from concurrent
//     transmissions, 10*log10(1 + I/N) over a log-distance path-loss
//     model, subtracted from the link SNR before the BER lookup.
// Active transmissions live in a small vector ordered by insertion;
// every accumulation walks it in that order, so the floating-point sums
// are a pure function of the event sequence (determinism rule A6).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/topology.hpp"

namespace braidio::net {

struct MediumConfig {
  /// Receiver noise floor for the I/N interference ratio [dBm].
  double noise_floor_dbm = -90.0;
  /// Transmit power every node radiates while on the air [dBm].
  double tx_power_dbm = 0.0;
  /// Log-distance path loss: loss at the 1 m reference distance [dB].
  double ref_loss_db = 40.0;
  /// Log-distance path-loss exponent (2 free space, ~2.2 indoor LoS).
  double path_loss_exponent = 2.2;
};

class SharedMedium {
 public:
  /// `positions` must outlive the medium (the simulator owns both).
  /// Throws std::invalid_argument on a non-finite/non-positive config.
  SharedMedium(MediumConfig config, const std::vector<Vec2>& positions);

  /// Node `tx` starts radiating toward `rx` until `until_s`, at
  /// `power_dbm` as seen by other links (config().tx_power_dbm for an
  /// active transmitter; backscatter reflections pass something lower).
  /// It stays on the air until end(tx); `until_s` is not stored.
  void begin(std::uint32_t tx, std::uint32_t rx, double until_s,
             double power_dbm);

  /// Node `tx` leaves the air (order-preserving removal).
  void end(std::uint32_t tx);

  std::size_t active_count() const { return active_.size(); }

  /// Log-distance path loss [dB] at separation d (floored at 1 cm).
  double path_loss_db(double distance_m) const;

  /// Total power `node` hears from everyone on the air except
  /// `exclude_tx`, plus the noise floor [dBm].
  double ambient_dbm(std::uint32_t node, std::uint32_t exclude_tx) const;

  /// The CCA verdict: exactly `ambient_dbm(node, exclude_tx) <
  /// threshold_dbm`, usually without computing ambient_dbm. Builds the
  /// path-gain table on its first call.
  bool ambient_below(std::uint32_t node, std::uint32_t exclude_tx,
                     double threshold_dbm);

  /// SNR penalty 10*log10(1 + I/N) [dB] at receiver `rx` from all
  /// transmissions other than the one sourced by `exclude_tx`. Each
  /// interferer remembers the power it delivers at `rx` for the next
  /// query there.
  double interference_penalty_db(std::uint32_t rx,
                                 std::uint32_t exclude_tx) const;

  const MediumConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kNoNode =
      std::numeric_limits<std::uint32_t>::max();

  /// What the sums read of a transmission, cached at begin().
  struct ActiveTx {
    std::uint32_t tx = 0;
    /// The last receiver a penalty query summed this transmission at,
    /// and the power it delivers there [W]: a receiver queried again
    /// (the hub, in a star) reads it instead of paying a pow. A cache
    /// that never changes an answer, hence mutable.
    mutable std::uint32_t memo_node = kNoNode;
    Vec2 at;              // positions_[tx]
    double gain_w = 0.0;  // dbm_to_watts(power_dbm) * ref_gain_
    mutable double memo_w = 0.0;
  };

  /// Sum of received interference power at `node` [W], insertion order.
  /// Every query reads the receiver memo; only `remember` (the penalty's
  /// receiver) writes it, so CCA's ambient fallback at other nodes never
  /// evicts the hub's terms.
  double interference_watts(std::uint32_t node, std::uint32_t exclude_tx,
                            bool remember) const;

  MediumConfig config_;
  const std::vector<Vec2>& positions_;
  double noise_floor_w_;
  double ref_gain_ = 1.0;  // 10^(-ref_loss_db/10), linear hot-path form
  /// begin()'s gain_w for the last two power levels it saw, newest
  /// first: a network radiates at two (active and backscatter), so a
  /// transmission costs no pow.
  struct PowerGain {
    double power_dbm = std::numeric_limits<double>::quiet_NaN();
    double gain_w = 0.0;
  };
  std::array<PowerGain, 2> power_gain_{};
  std::vector<ActiveTx> active_;
  // ambient_below()'s path-gain table. A squared distance's bucket is
  // its double's exponent and top 6 mantissa bits (64 buckets an
  // octave), so a bucket spans [edge_k, edge_k+1) with both edges exact
  // doubles and (d^2)^(-n/2) moves under 1.7% across it at n = 2.2. The
  // table covers d^2 in [2^-14, 2^20) m^2: the 1 cm floor (1e-4 m^2) up
  // to 1 km.
  static constexpr int kBucketShift = 52 - 6;
  static constexpr std::uint64_t kFirstBucket =
      std::bit_cast<std::uint64_t>(0x1p-14) >> kBucketShift;
  static constexpr std::uint64_t kBuckets =
      (std::bit_cast<std::uint64_t>(0x1p20) >> kBucketShift) - kFirstBucket;
  /// (d^2)^(-n/2) at the bucket edges, computed by the first
  /// ambient_below() call (TDMA runs never compute it). Held inline:
  /// allocating it mid-run raised the 10k star's peak RSS by ~0.27 MB.
  std::array<double, kBuckets + 1> edge_gain_{};
  bool edge_gain_ready_ = false;
  /// ambient_below()'s last threshold, and its watts with the 1e-9
  /// margins applied.
  double threshold_dbm_ = std::numeric_limits<double>::quiet_NaN();
  double busy_w_ = 0.0;
  double clear_w_ = 0.0;
};

}  // namespace braidio::net
