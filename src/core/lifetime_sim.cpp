#include "core/lifetime_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/braidio_radio.hpp"
#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::core {

namespace {

// Decompose a finished fluid run into attributed energy posts: per plan
// entry, each side's per-bit cost times the bits that entry carried; the
// remainder up to the plan's (overhead-adjusted) per-bit totals is the
// amortized mode-switch cost. Posts carry no sim time — the fluid model
// has no clock. Thread-safe: posts land in the caller thread's scoped
// profile (or the mutex-guarded global one), never in simulator state.
void post_lifetime_attribution(const LifetimeOutcome& outcome) {
  obs::EnergySpan root("lifetime");
  const double nan = obs::no_sim_time();
  double d1 = 0.0, d2 = 0.0;
  for (const auto& e : outcome.plan.entries) {
    const double entry_bits = outcome.bits * e.fraction;
    const double fwd_bits = e.reverse ? 0.5 * entry_bits : entry_bits;
    {
      obs::EnergySpan mode(e.candidate.label());
      const double j1 = fwd_bits * e.candidate.tx_joules_per_bit();
      const double j2 = fwd_bits * e.candidate.rx_joules_per_bit();
      obs::post_energy(
          energy::to_string(
              category_for(e.candidate.mode, Role::DataTransmitter)),
          j1, nan);
      obs::post_energy(
          energy::to_string(
              category_for(e.candidate.mode, Role::DataReceiver)),
          j2, nan);
      d1 += j1;
      d2 += j2;
    }
    if (e.reverse) {
      obs::EnergySpan mode(e.reverse->label());
      // Role swap: device 1 receives in the reverse leg.
      const double j1 = 0.5 * entry_bits * e.reverse->rx_joules_per_bit();
      const double j2 = 0.5 * entry_bits * e.reverse->tx_joules_per_bit();
      obs::post_energy(
          energy::to_string(
              category_for(e.reverse->mode, Role::DataReceiver)),
          j1, nan);
      obs::post_energy(
          energy::to_string(
              category_for(e.reverse->mode, Role::DataTransmitter)),
          j2, nan);
      d1 += j1;
      d2 += j2;
    }
  }
  const double total1 = outcome.bits * outcome.plan.tx_joules_per_bit;
  const double total2 = outcome.bits * outcome.plan.rx_joules_per_bit;
  const double overhead =
      std::max(0.0, total1 - d1) + std::max(0.0, total2 - d2);
  if (overhead > 0.0) {
    obs::EnergySpan amortized("switch-amortized");
    obs::post_energy(
        energy::to_string(energy::EnergyCategory::ModeSwitch), overhead,
        nan);
  }
}

}  // namespace

LifetimeSimulator::LifetimeSimulator(const hal::RadioBackend& backend)
    : regimes_(backend) {}

std::vector<ModeCandidate> LifetimeSimulator::candidates_at(
    double distance_m) const {
  // Sec. 4.2: probing reports, per mode, the highest bitrate the link
  // sustains; the planner mixes over those.
  auto candidates = regimes_.available_best_rate(distance_m);
  if (candidates.empty()) {
    throw std::runtime_error("LifetimeSimulator: no link at this distance");
  }
  return candidates;
}

LifetimeOutcome LifetimeSimulator::braidio(util::Joules e1, util::Joules e2,
                                           const LifetimeConfig& config) const {
  const double e1_joules = e1.value();
  const double e2_joules = e2.value();
  LifetimeOutcome outcome;
  outcome.plan = plan::plan_link(
      regimes_.caps(), candidates_at(config.distance_m), e1_joules,
      e2_joules, config.bidirectional, config.bits_per_dwell);
  outcome.bits = outcome.plan.bits_until_depletion(e1_joules, e2_joules);
  outcome.seconds = outcome.bits * plan::plan_seconds_per_bit(outcome.plan);
  obs::count(obs::Counter::LifetimeRuns);
  if (obs::attribution_enabled()) post_lifetime_attribution(outcome);
  BRAIDIO_ENSURE(std::isfinite(outcome.seconds) && outcome.seconds >= 0.0,
                 "seconds", outcome.seconds);
  return outcome;
}

double LifetimeSimulator::bluetooth_bits(util::Joules e1, util::Joules e2,
                                         bool bidirectional) const {
  return bidirectional
             ? bluetooth_.bits_until_depletion_bidirectional(e1.value(),
                                                             e2.value())
             : bluetooth_.bits_until_depletion(e1.value(), e2.value());
}

double LifetimeSimulator::best_single_mode_bits(
    util::Joules e1, util::Joules e2, const LifetimeConfig& config) const {
  const auto candidates = candidates_at(config.distance_m);
  double best = 0.0;
  for (const auto& c : candidates) {
    best = std::max(best, plan::single_mode_bits(c, e1.value(), e2.value(),
                                                 config.bidirectional));
  }
  return best;
}

double LifetimeSimulator::gain_vs_bluetooth(
    const energy::DeviceSpec& tx, const energy::DeviceSpec& rx,
    const LifetimeConfig& config) const {
  const auto e1 = util::to_joules(util::WattHours(tx.battery_wh));
  const auto e2 = util::to_joules(util::WattHours(rx.battery_wh));
  const double braid = braidio(e1, e2, config).bits;
  const double bt = bluetooth_bits(e1, e2, config.bidirectional);
  const double gain = braid / bt;
  BRAIDIO_ENSURE(std::isfinite(gain) && gain > 0.0, "gain", gain);
  return gain;
}

double LifetimeSimulator::gain_vs_best_mode(
    const energy::DeviceSpec& tx, const energy::DeviceSpec& rx,
    const LifetimeConfig& config) const {
  const auto e1 = util::to_joules(util::WattHours(tx.battery_wh));
  const auto e2 = util::to_joules(util::WattHours(rx.battery_wh));
  const double braid = braidio(e1, e2, config).bits;
  const double best = best_single_mode_bits(e1, e2, config);
  return braid / best;
}

}  // namespace braidio::core
