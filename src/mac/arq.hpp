// Stop-and-wait ARQ.
//
// Braidio links are half-duplex (a single carrier is shared by both
// directions in the passive/backscatter modes), so the data plane uses the
// simplest reliable scheme: alternating-sequence stop-and-wait with a
// bounded retransmission count. ArqSender/ArqReceiver are pure state
// machines — the event simulator drives them with delivery outcomes, which
// keeps them unit-testable without any channel.
//
// The two protocol timings every packet engine shares live here:
// BraidedLink and the network simulator's per-hop retry both use
// kMaxRetransmissions and kTurnaroundS.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/frame.hpp"

namespace braidio::mac {

/// Stop-and-wait retry budget: attempts beyond the first send.
inline constexpr unsigned kMaxRetransmissions = 7;
/// Half-duplex RX->TX turnaround before the ack leg [s].
inline constexpr double kTurnaroundS = 150e-6;

class ArqSender {
 public:
  explicit ArqSender(std::uint8_t source, std::uint8_t destination);

  /// Queue a payload; returns false if a transfer is already in flight.
  bool submit(std::vector<std::uint8_t> payload);

  /// The frame to (re)transmit now, if any.
  std::optional<Frame> frame_to_send() const;

  /// Process an incoming ack frame. Returns true when it completes the
  /// in-flight transfer.
  bool on_ack(const Frame& ack);

  /// Signal a timeout (no ack). Returns false when the retry budget is
  /// exhausted and the transfer is dropped.
  bool on_timeout();

  bool idle() const { return !in_flight_; }
  std::uint16_t next_sequence() const { return sequence_; }
  unsigned attempts() const { return attempts_; }

  /// Counters for diagnostics.
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t transmissions() const { return transmissions_; }

  /// Account one physical transmission of the current frame (the event
  /// simulator calls this when it puts the frame on the air).
  void note_transmission() { ++transmissions_; }

 private:
  std::uint8_t source_;
  std::uint8_t destination_;
  bool in_flight_ = false;
  std::uint16_t sequence_ = 0;
  unsigned attempts_ = 0;
  std::vector<std::uint8_t> payload_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t transmissions_ = 0;
};

class ArqReceiver {
 public:
  explicit ArqReceiver(std::uint8_t address);

  struct Result {
    std::optional<Frame> ack;  // to send back (when the frame was for us)
    bool fresh = false;        // true when payload was new (not a duplicate)
  };

  /// Process an incoming data frame.
  Result on_data(const Frame& frame);

  std::uint64_t received_fresh() const { return fresh_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  std::uint8_t address_;
  std::optional<std::uint16_t> last_sequence_;
  std::uint64_t fresh_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace braidio::mac
