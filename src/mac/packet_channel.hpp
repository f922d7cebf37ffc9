// BER-driven packet channel: puts serialized frames "on the air".
//
// Uses the backend's hal::ChannelModel to derive the bit error rate for the
// current (mode, bitrate, distance), flips bits independently, and lets the
// frame CRC do its job at the receiver. Supports Rayleigh block fading to
// stress the fallback logic, held coherent across nearby transmissions by
// a Gauss-Markov process over the simulated clock (kFadeCoherenceS), so a
// data frame and the ACK 150 us behind it see the same fade.
//
// A deterministic fault schedule (sim/faults) can be attached: the channel
// reads the impairment state at its simulated clock before every
// transmission — extra shadowing/interference loss, carrier dropout, and
// coherent fade bursts all land here. Callers advance the clock with
// set_clock(); distance jumps and brownouts are consumed by the session
// layer (BraidedLink), not the channel.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "hal/channel_model.hpp"
#include "hal/link_mode.hpp"
#include "mac/frame.hpp"
#include "rf/fading.hpp"
#include "sim/faults/impairment.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio::mac {

/// Block-fade coherence time [s]: the fade decorrelates to ~1/e over
/// this much simulated time, far longer than a data+ACK exchange.
inline constexpr double kFadeCoherenceS = 5e-3;

struct PacketChannelConfig {
  double distance_m = 0.5;
  bool block_fading = false;      // Rayleigh power scaling on each packet
  double extra_loss_db = 0.0;     // shadowing / antenna misalignment knob
};

class PacketChannel {
 public:
  PacketChannel(const hal::ChannelModel& channel, PacketChannelConfig config,
                util::Rng rng);

  /// Transmit a frame over (mode, rate). Returns the deserialized frame if
  /// it survives (bit corruption is applied to the wire bytes; the CRC
  /// rejects damaged frames), nullopt otherwise.
  std::optional<Frame> transmit(const Frame& frame, hal::LinkMode mode,
                                hal::Bitrate rate);

  /// Airtime of a frame at `rate` [s].
  static double airtime_s(const Frame& frame, hal::Bitrate rate);
  /// Airtime of `wire_bits` serialized bits at `rate` [s].
  static double airtime_s(std::size_t wire_bits, hal::Bitrate rate);

  void set_distance(double distance_m);
  double distance() const { return config_.distance_m; }

  /// Advance the channel's simulated clock; drives fade decorrelation
  /// and fault-schedule lookups. Must be non-decreasing.
  void set_clock(util::Seconds sim_time);
  double clock_s() const { return clock_s_; }

  /// Attach a fault schedule (not owned; may be nullptr to detach). The
  /// schedule must outlive the channel's use of it.
  void set_impairments(const sim::faults::ImpairmentSchedule* schedule) {
    impairments_ = schedule;
  }

 private:
  /// Rayleigh block-fade power gain, coherent (Gauss-Markov over the sim
  /// clock).
  double fade_power_gain();
  /// Power gain of an active fault fade burst (depth-scaled, coherent).
  double fault_fade_power_gain(const sim::faults::ImpairmentState& state);

  const hal::ChannelModel& channel_;
  PacketChannelConfig config_;
  util::Rng rng_;
  const sim::faults::ImpairmentSchedule* impairments_ = nullptr;
  double clock_s_ = 0.0;
  // Coherent block-fade process (lazily built on first faded transmit).
  std::optional<rf::CoherentChannelProcess> fade_;
  double fade_clock_s_ = 0.0;
  // Fault fade-burst process (rebuilt when a burst's parameters change).
  std::optional<rf::CoherentChannelProcess> fault_fade_;
  double fault_fade_clock_s_ = 0.0;
  double fault_fade_coherence_s_ = 0.0;
};

}  // namespace braidio::mac
