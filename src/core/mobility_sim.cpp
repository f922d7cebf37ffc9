#include "core/mobility_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baseline/bluetooth.hpp"
#include "core/braidio_radio.hpp"
#include "obs/obs.hpp"
#include "util/units.hpp"

namespace braidio::core {

MobilityTrace::MobilityTrace(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  if (waypoints_.size() < 2) {
    throw std::invalid_argument("MobilityTrace: need >= 2 waypoints");
  }
  if (waypoints_.front().time_s != 0.0) {
    throw std::invalid_argument("MobilityTrace: must start at t = 0");
  }
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (!(waypoints_[i].time_s > waypoints_[i - 1].time_s)) {
      throw std::invalid_argument("MobilityTrace: time must increase");
    }
    if (waypoints_[i].distance_m < 0.0) {
      throw std::invalid_argument("MobilityTrace: negative distance");
    }
  }
}

MobilityTrace MobilityTrace::random_walk(double min_distance_m,
                                         double max_distance_m,
                                         double speed_mps,
                                         util::Seconds duration,
                                         std::uint64_t seed) {
  const double duration_s = duration.value();
  if (!(min_distance_m >= 0.0) || !(max_distance_m > min_distance_m) ||
      !(speed_mps > 0.0) || !(duration_s > 0.0)) {
    throw std::invalid_argument("random_walk: bad parameters");
  }
  util::Rng rng(seed);
  std::vector<Waypoint> points;
  double t = 0.0;
  double d = rng.uniform(min_distance_m, max_distance_m);
  points.push_back({0.0, d});
  while (t < duration_s) {
    const double target = rng.uniform(min_distance_m, max_distance_m);
    const double travel = std::fabs(target - d) / speed_mps;
    const double dwell = rng.uniform(0.5, 3.0);
    t += std::max(travel, 1e-3);
    points.push_back({t, target});
    t += dwell;
    points.push_back({t, target});
    d = target;
  }
  return MobilityTrace(std::move(points));
}

double MobilityTrace::distance_at(util::Seconds time) const {
  const double time_s = time.value();
  if (time_s <= 0.0) return waypoints_.front().distance_m;
  if (time_s >= waypoints_.back().time_s) {
    return waypoints_.back().distance_m;
  }
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (time_s <= waypoints_[i].time_s) {
      const auto& a = waypoints_[i - 1];
      const auto& b = waypoints_[i];
      const double f = (time_s - a.time_s) / (b.time_s - a.time_s);
      return a.distance_m + f * (b.distance_m - a.distance_m);
    }
  }
  return waypoints_.back().distance_m;
}

MobilitySimulator::MobilitySimulator(const hal::RadioBackend& backend)
    : regimes_(backend) {}

MobilityOutcome MobilitySimulator::run(const MobilityTrace& trace,
                                       const MobilitySimConfig& config) const {
  const double replan_interval_s = config.replan_interval.value();
  if (!(replan_interval_s > 0.0)) {
    throw std::invalid_argument("MobilitySimulator: bad replan interval");
  }
  MobilityOutcome outcome;
  // Root attribution scope: every interval's drain lands under
  // "walk/<device>/<dominant mode>/<category>".
  BRAIDIO_ENERGY_SPAN(walk_span, "walk");
  double e1 = util::wh_to_joules(config.e1.value());
  double e2 = util::wh_to_joules(config.e2.value());
  const double e1_0 = e1, e2_0 = e2;
  double bt1 = e1, bt2 = e2;  // independent budget for the BT baseline
  baseline::BluetoothRadioModel bluetooth;

  std::string last_plan;
  for (double t = 0.0; t < trace.duration_s() && e1 > 0.0 && e2 > 0.0;
       t += replan_interval_s) {
    const double dt =
        std::min(replan_interval_s, trace.duration_s() - t);
    const double d = trace.distance_at(util::Seconds(t));
    const double e1_before = e1, e2_before = e2;
    MobilitySample sample;
    sample.time_s = t;
    sample.distance_m = d;
    sample.regime = regimes_.regime(d);
    BRAIDIO_TRACE_EVENT(obs::EventType::DwellStart,
                        to_string(sample.regime), t, d);
    obs::observe(obs::Histogram::DwellSeconds, dt);

    // The interval's attribution: dominant mode label plus each side's
    // drain category (overwritten by the braid branch below).
    std::string interval_label = "no-link";
    energy::EnergyCategory cat1 = energy::EnergyCategory::Idle;
    energy::EnergyCategory cat2 = energy::EnergyCategory::Idle;
    const auto candidates = regimes_.available_best_rate(d);
    if (candidates.empty()) {
      // Out of range entirely: idle floor only.
      sample.link_up = false;
      sample.plan = "(no link)";
      e1 = std::max(0.0, e1 - regimes_.sleep_power().value() * dt);
      e2 = std::max(0.0, e2 - regimes_.sleep_power().value() * dt);
    } else {
      const auto plan =
          plan::plan_link(regimes_.caps(), candidates, e1, e2,
                          config.bidirectional, plan::kDefaultBitsPerDwell);
      ++outcome.replans;
      obs::count(obs::Counter::Replans);
      sample.plan = plan.summary();
      if (sample.plan != last_plan) {
        if (!last_plan.empty()) ++outcome.plan_changes;
        last_plan = sample.plan;
        BRAIDIO_TRACE_EVENT(obs::EventType::ModeSwitch,
                            sample.plan.c_str(), t, d);
      }
      // Throughput of the braid: seconds per bit from the mode mix.
      double bits = dt / plan::plan_seconds_per_bit(plan);
      // Battery-limited cap.
      bits = std::min(bits, e1 / plan.tx_joules_per_bit);
      bits = std::min(bits, e2 / plan.rx_joules_per_bit);
      outcome.total_bits += bits;
      e1 -= bits * plan.tx_joules_per_bit;
      e2 -= bits * plan.rx_joules_per_bit;
      const plan::PlanEntry* dominant = &plan.entries.front();
      for (const auto& e : plan.entries) {
        if (e.fraction > dominant->fraction) dominant = &e;
      }
      interval_label = dominant->candidate.label();
      cat1 = category_for(dominant->candidate.mode, Role::DataTransmitter);
      cat2 = category_for(dominant->candidate.mode, Role::DataReceiver);
    }
    // Bluetooth baseline on the same trace: works wherever its (active)
    // link works, same per-bit energies everywhere.
    if (regimes_.channel().available(phy::LinkMode::Active, phy::Bitrate::M1,
                                    d) &&
        bt1 > 0.0 && bt2 > 0.0) {
      double bt_bits = dt * bluetooth.bitrate_bps;
      bt_bits = std::min(bt_bits, bt1 / bluetooth.tx_energy_per_bit());
      bt_bits = std::min(bt_bits, bt2 / bluetooth.rx_energy_per_bit());
      outcome.bluetooth_bits += bt_bits;
      bt1 -= bt_bits * bluetooth.tx_energy_per_bit();
      bt2 -= bt_bits * bluetooth.rx_energy_per_bit();
    }
    sample.bits_so_far = outcome.total_bits;
    sample.device1_joules_used = e1_0 - e1;
    sample.device2_joules_used = e2_0 - e2;
    // Post each side's exact interval drain to the outcome ledger (the
    // charge also emits the EnergyPost counter/histogram/trace hooks the
    // interval used to post by hand) so the ledger — and under enabled
    // attribution the span tree — sums to precisely what the batteries
    // lost.
    {
      BRAIDIO_ENERGY_SPAN(device_span, "device1");
      BRAIDIO_ENERGY_SPAN(mode_span, interval_label.c_str());
      outcome.ledger.charge(cat1, util::Joules(e1_before - e1),
                            util::Seconds(t + dt));
    }
    {
      BRAIDIO_ENERGY_SPAN(device_span, "device2");
      BRAIDIO_ENERGY_SPAN(mode_span, interval_label.c_str());
      outcome.ledger.charge(cat2, util::Joules(e2_before - e2),
                            util::Seconds(t + dt));
    }
    BRAIDIO_TRACE_EVENT(obs::EventType::DwellEnd,
                        to_string(sample.regime), t + dt, dt);
    if (e1 <= 0.0 || e2 <= 0.0) {
      obs::count(obs::Counter::BatteryDeaths);
      BRAIDIO_TRACE_EVENT(obs::EventType::BatteryDeath,
                          e1 <= 0.0 ? "device1" : "device2", t + dt,
                          std::max(e1, e2));
    }
    outcome.samples.push_back(std::move(sample));
  }
  outcome.device1_joules = e1_0 - e1;
  outcome.device2_joules = e2_0 - e2;
  outcome.bluetooth_d1_joules = util::wh_to_joules(config.e1.value()) - bt1;
  outcome.bluetooth_d2_joules = util::wh_to_joules(config.e2.value()) - bt2;
  return outcome;
}

}  // namespace braidio::core
