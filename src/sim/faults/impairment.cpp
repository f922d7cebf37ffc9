#include "sim/faults/impairment.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rf/interference.hpp"
#include "util/contract.hpp"

namespace braidio::sim::faults {

namespace {
/// Noise floor the interferer penalty is computed against [dBm].
constexpr double kNoiseFloorDbm = -90.0;
/// Envelope-detector band that filters the interferer beat.
constexpr rf::EnvelopeInterferenceModel kDetector{};
}  // namespace

ImpairmentSchedule::ImpairmentSchedule(FaultTimeline timeline)
    : timeline_(std::move(timeline)) {}

double ImpairmentSchedule::interferer_penalty_db(
    const FaultEvent& event) const {
  rf::InterfererSpec spec;
  spec.power_dbm = event.magnitude;
  spec.offset_hz = event.param;
  return kDetector.snr_penalty_db(kNoiseFloorDbm, spec);
}

ImpairmentState ImpairmentSchedule::state_at(double sim_s) const {
  // Legacy single-link view: every event applies, whatever its node
  // scope. Must stay byte-identical for un-scoped timelines (goldens).
  return state_at(sim_s, kNodeBroadcast);
}

ImpairmentState ImpairmentSchedule::state_at(double sim_s, int node) const {
  BRAIDIO_REQUIRE(std::isfinite(sim_s), "sim_s", sim_s);
  ImpairmentState state;
  for (const auto& ev : timeline_.events()) {
    if (ev.start_s > sim_s) break;  // sorted by start
    if (node != kNodeBroadcast && ev.node != kNodeBroadcast &&
        ev.node != node) {
      continue;
    }
    if (ev.kind == FaultKind::DistanceJump) {
      state.distance_m = ev.magnitude;  // latest jump wins
      continue;
    }
    if (!ev.active_at(sim_s)) continue;
    switch (ev.kind) {
      case FaultKind::Shadowing:
        state.extra_loss_db += ev.magnitude;
        break;
      case FaultKind::Interferer:
        state.extra_loss_db += interferer_penalty_db(ev);
        break;
      case FaultKind::CarrierDropout:
        state.carrier_dropout = true;
        break;
      case FaultKind::FadeBurst:
        // Overlapping bursts: the deepest one governs.
        state.fade_active = true;
        if (ev.magnitude >= state.fade_depth_db) {
          state.fade_depth_db = ev.magnitude;
          state.fade_coherence_s = ev.param;
        }
        break;
      case FaultKind::DistanceJump:
      case FaultKind::Brownout:
        break;  // one-shot events are consumed as edges, not state
    }
  }
  BRAIDIO_ENSURE(state.extra_loss_db >= 0.0, "extra_loss_db",
                 state.extra_loss_db);
  return state;
}

double ImpairmentSchedule::brownout_joules(double t0, double t1,
                                           int device) const {
  BRAIDIO_REQUIRE(device == kTargetA || device == kTargetB, "device",
                  device);
  double joules = 0.0;
  for (const auto& ev : timeline_.events()) {
    if (ev.start_s > t1) break;
    if (ev.kind != FaultKind::Brownout || ev.start_s <= t0) continue;
    if (ev.target == kTargetBoth || ev.target == device) {
      joules += ev.magnitude;
    }
  }
  return joules;
}

}  // namespace braidio::sim::faults
