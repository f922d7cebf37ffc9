// ImpairmentSchedule: the single interface consumers read faults through.
//
// PacketChannel, BraidedLink, and the network simulator never interpret
// raw fault events; they ask the schedule two questions:
//   * state_at(t): the superposed channel impairment at sim time t
//     (extra loss dB from shadowing + interferer beat leakage, carrier
//     dropout, an active coherent-fade burst, the current distance
//     override), a pure thread-safe query; and
//   * one-shot accounting: brownout joules and activation edges crossed
//     when a consumer's clock advances from t0 to t1.
// Interferer bursts are converted to an SNR penalty with the calibrated
// envelope-detector model from rf/interference.hpp (its default band,
// over a -90 dBm noise floor) — Table 3's "may be interfered by in-band
// signal" cost made quantitative.
#pragma once

#include <optional>
#include <vector>

#include "sim/faults/fault_timeline.hpp"

namespace braidio::sim::faults {

/// The superposed impairment at one instant of simulated time.
struct ImpairmentState {
  /// Shadowing losses plus interferer SNR penalties, summed in dB.
  double extra_loss_db = 0.0;
  /// True while any CarrierDropout window is active: nothing gets through.
  bool carrier_dropout = false;
  /// Coherent-fade burst (FadeBurst window active).
  bool fade_active = false;
  double fade_depth_db = 0.0;      // mean power loss of the burst
  double fade_coherence_s = 0.0;   // Gauss-Markov coherence time
  /// Distance of the most recent DistanceJump at or before t, if any.
  std::optional<double> distance_m;

  bool impaired() const {
    return extra_loss_db > 0.0 || carrier_dropout || fade_active;
  }
};

class ImpairmentSchedule {
 public:
  ImpairmentSchedule() = default;
  explicit ImpairmentSchedule(FaultTimeline timeline);

  const FaultTimeline& timeline() const { return timeline_; }
  bool empty() const { return timeline_.empty(); }

  /// Superposed impairment at sim time t. Pure function of (timeline, t):
  /// safe to call concurrently from sweep workers. Applies EVERY event
  /// regardless of node scope — the single-link consumers' legacy view.
  ImpairmentState state_at(double sim_s) const;

  /// Node-scoped view for the network simulator: only events that are
  /// broadcast or target exactly `node` contribute. A timeline with no
  /// node-scoped events gives the same answer as state_at(sim_s).
  ImpairmentState state_at(double sim_s, int node) const;

  /// Joules to drain from endpoint `device` (kTargetA / kTargetB) for
  /// Brownout events starting in (t0, t1].
  double brownout_joules(double t0, double t1, int device) const;

  /// Fault activations (window or instant starts) in (t0, t1], for trace
  /// events and counters.
  std::vector<FaultEvent> activations_in(double t0, double t1) const {
    return timeline_.starting_in(t0, t1);
  }

  /// The SNR penalty [dB] this schedule charges for one interferer event
  /// (exposed for tests and for the DESIGN.md tables).
  double interferer_penalty_db(const FaultEvent& event) const;

 private:
  FaultTimeline timeline_;
};

}  // namespace braidio::sim::faults
