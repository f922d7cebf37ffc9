// Event-driven braided session between two Braidio radios.
//
// Implements the runtime of Sec. 4.2 end to end, on top of the MAC
// primitives and the BER-driven packet channel:
//   1. setup over the active link: battery status exchange + probe packets
//      for every mode at its best sustainable bitrate;
//   2. carrier-offload planning from the exchanged energies through
//      plan::plan_link (Eq. 1 plus the best-exclusive-mode fallback) with
//      an infinite dwell, since step 3 charges every switch as it happens;
//   3. a packet schedule that realizes the planned mode fractions
//      ("Active-Active-Passive-Backscatter (repeated)") with Table 5
//      switching costs charged on every transition;
//   4. ARQ on the data plane with exponential backoff, an ACK-timeout
//      listen window charged on every loss, and fallback to the active
//      mode when the current mode's loss rate stays poor across two
//      consecutive slots (hysteresis: a single bad slot cannot ping-pong
//      the plan), plus periodic replanning as battery levels drift.
//
// The protocol timings are constants (braided_link.cpp, mac/arq.hpp,
// mac/packet_channel.hpp); DESIGN.md §11 lists them.
//
// A deterministic fault schedule (sim/faults) can be attached: channel
// impairments (shadowing, interference, dropout, fade bursts) are consumed
// by the packet channel; distance jumps and battery brownouts are consumed
// here, and every activation becomes a FaultActive trace event + counter.
//
// The session uses the *fluid* simulator for the headline matrices
// (Figs. 15-18, where transfers run to battery exhaustion); this event
// simulator exists to validate that a packetized protocol actually achieves
// the planned proportions and survives channel dynamics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>
#include <string>

#include "core/regimes.hpp"
#include "hal/radio.hpp"
#include "mac/arq.hpp"
#include "mac/packet_channel.hpp"
#include "plan/offload.hpp"
#include "sim/faults/impairment.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio::core {

struct BraidedLinkConfig {
  double distance_m = 0.5;
  std::size_t payload_bytes = 32;
  /// Packets between schedule slots (mode dwell granularity).
  unsigned packets_per_slot = 16;
  /// Extra path loss [dB] applied mid-run, for failure-injection tests.
  double extra_loss_db = 0.0;
  /// Rayleigh block fading, coherent across a data+ACK exchange
  /// (mac::kFadeCoherenceS).
  bool block_fading = false;
  /// Alternate transfer direction packet-by-packet with an equal data
  /// split (the Fig. 17 traffic pattern); plans come from plan_link's
  /// bidirectional Eq. 1 and each schedule slot carries a forward and a
  /// reverse operating point.
  bool bidirectional = false;
  /// Scripted fault schedule (not owned; must outlive the link). nullptr
  /// = clean run.
  const sim::faults::ImpairmentSchedule* impairments = nullptr;
  std::uint64_t seed = 1;
};

struct BraidedLinkStats {
  std::uint64_t data_packets_offered = 0;
  std::uint64_t data_packets_delivered = 0;
  std::uint64_t data_packets_dropped = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t replans = 0;
  std::uint64_t fault_activations = 0;
  double payload_bits_delivered = 0.0;          // a -> b
  double payload_bits_delivered_reverse = 0.0;  // b -> a (bidirectional)
  double elapsed_s = 0.0;
  /// Airtime fraction per operating-point label.
  std::map<std::string, double> mode_airtime_s;
  std::string last_plan;

  double delivery_ratio() const {
    return data_packets_offered == 0
               ? 0.0
               : static_cast<double>(data_packets_delivered) /
                     static_cast<double>(data_packets_offered);
  }
};

class BraidedLink {
 public:
  /// Transfers run device_a -> device_b. The endpoints are any HAL radios
  /// (the same backend the RegimeMap was built from). All references must
  /// outlive the link.
  BraidedLink(hal::IRadio& device_a, hal::IRadio& device_b,
              const RegimeMap& regimes, BraidedLinkConfig config = {});

  /// Run until `packets` data packets were offered or a battery dies.
  BraidedLinkStats run(std::uint64_t packets);

  /// The plan currently being executed (empty before the first run).
  const plan::OffloadPlan& current_plan() const { return plan_; }

 private:
  struct SlotEntry {
    ModeCandidate forward;
    std::optional<ModeCandidate> reverse;  // set in bidirectional plans
  };

  void setup_control_plane();
  void replan();
  bool send_control(mac::FrameType type, std::vector<std::uint8_t> payload,
                    const ModeCandidate& point);
  /// Advance both radios by `elapsed`, each charged in the mode and role
  /// its last switch_to set; `point` labels the airtime in the stats.
  /// Returns false when a battery dies.
  bool spend(const ModeCandidate& point, util::Seconds elapsed);
  /// One ARQ exchange in the given direction over `point`. Returns true
  /// when the payload was delivered and acked.
  bool transfer_packet(const ModeCandidate& point, bool forward,
                       mac::ArqSender& sender, mac::ArqReceiver& receiver);
  ModeCandidate active_point() const;
  /// Build the slot-level schedule realizing the plan fractions.
  std::vector<SlotEntry> build_schedule() const;
  /// The ACK-timeout listen window for `point`: one ACK airtime at its
  /// rate plus the peer's turnaround.
  util::Seconds ack_timeout(const ModeCandidate& point) const;
  /// Jittered exponential backoff before retry `attempt` (1-based).
  util::Seconds backoff(const ModeCandidate& point, unsigned attempt);
  /// Consume fault-schedule edges up to the current sim time: trace
  /// activations, apply distance jumps and battery brownouts.
  void apply_fault_edges();

  hal::IRadio& a_;
  hal::IRadio& b_;
  const RegimeMap& regimes_;
  BraidedLinkConfig config_;
  util::Rng rng_;
  mac::PacketChannel channel_;
  plan::OffloadPlan plan_;
  BraidedLinkStats stats_;
  double faults_applied_to_s_ = 0.0;
  bool dead_ = false;
};

}  // namespace braidio::core
