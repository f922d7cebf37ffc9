// Cross-module integration: the event-driven protocol session must agree
// with the fluid lifetime model, and the circuit/RF substrates must be
// consistent with the calibrated PHY abstractions built on top of them.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "backends/backends.hpp"
#include "circuits/charge_pump.hpp"
#include "circuits/comparator.hpp"
#include "circuits/netlist.hpp"
#include "circuits/transient.hpp"
#include "core/braided_link.hpp"
#include "core/lifetime_sim.hpp"
#include "hal/radio.hpp"
#include "phy/waveform.hpp"
#include "plan/offload.hpp"
#include "rf/phase_field.hpp"
#include "support/cancellation_angle.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio {
namespace {

TEST(Integration, EventSimulatorTracksFluidModelPerBitCosts) {
  // Run the packetized protocol for a while and compare each device's
  // measured per-delivered-bit energy against the fluid plan's prediction.
  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes(backend);
  hal::StandardRadio a("phone", 1, util::WattHours(6.55), backend.caps());
  hal::StandardRadio b("watch", 2, util::WattHours(0.78), backend.caps());
  const double e1 = a.battery().remaining_joules();
  const double e2 = b.battery().remaining_joules();

  core::BraidedLinkConfig cfg;
  cfg.distance_m = 0.4;
  cfg.packets_per_slot = 32;
  core::BraidedLink link(a, b, regimes, cfg);
  const auto stats = link.run(8192);
  ASSERT_GT(stats.payload_bits_delivered, 0.0);

  core::LifetimeSimulator sim(backend);
  core::LifetimeConfig fluid;
  fluid.distance_m = 0.4;
  const auto outcome =
      sim.braidio(util::Joules(e1), util::Joules(e2), fluid);

  const double measured_d1 =
      (e1 - a.battery().remaining_joules()) / stats.payload_bits_delivered;
  const double measured_d2 =
      (e2 - b.battery().remaining_joules()) / stats.payload_bits_delivered;
  // Protocol overhead (9 header+CRC bytes and an ack per 32-byte payload,
  // plus two 150 us half-duplex turnarounds per exchange) multiplies the
  // fluid per-bit energies by ~3x. The multiplier must be bounded, nearly
  // equal at both ends (overhead time is symmetric), and the planned
  // asymmetry direction must survive.
  const double m1 = measured_d1 / outcome.plan.tx_joules_per_bit;
  const double m2 = measured_d2 / outcome.plan.rx_joules_per_bit;
  EXPECT_GT(m1, 1.5);
  EXPECT_LT(m1, 4.5);
  EXPECT_GT(m2, 1.5);
  EXPECT_LT(m2, 4.5);
  EXPECT_NEAR(m1 / m2, 1.0, 0.35);
  EXPECT_GT(measured_d1, measured_d2);  // phone pays more: it is richer
}

TEST(Integration, ChargePumpBoostConsistentWithDetectorModel) {
  // The behavioural EnvelopeDetector assumes ~2x pump boost; the circuit-
  // level Dickson simulation must deliver that within diode losses.
  circuits::ChargePump pump;
  const auto run = pump.simulate(20e-6, 0.0, 8);
  EXPECT_GT(pump.measured_boost(run), 1.6);
  EXPECT_LE(pump.measured_boost(run), 2.0);
}

TEST(Integration, PhaseFieldNullsMatchWaveformBehaviour) {
  // Where the field simulation says theta ~ pi/2, the waveform simulator
  // must fail; where theta ~ 0, it must succeed.
  rf::PhaseField field;
  phy::LinkBudget budget;
  // Find a null and a healthy point along a line.
  double null_x = 0.0, good_x = 0.0;
  double worst = 1e300, best = -1e300;
  const auto rx = field.config().receive_antenna;
  for (double x = rx.x + 0.3; x <= rx.x + 1.2; x += 0.002) {
    const double snr = field.snr_db({x, 0.5}, rx);
    if (snr < worst) {
      worst = snr;
      null_x = x;
    }
    if (snr > best) {
      best = snr;
      good_x = x;
    }
  }
  const double theta_null = rf::cancellation_angle(field, {null_x, 0.5}, rx);
  const double theta_good = rf::cancellation_angle(field, {good_x, 0.5}, rx);
  EXPECT_GT(theta_null, 1.45);  // ~pi/2
  EXPECT_LT(theta_good, 0.8);

  phy::WaveformSimConfig wf;
  wf.mode = phy::LinkMode::Backscatter;
  wf.rate = phy::Bitrate::M1;
  wf.distance_m = 0.5;
  wf.bits = 5000;
  wf.cancellation_angle_rad = theta_null;
  EXPECT_GT(phy::simulate_waveform(budget, wf).measured_ber, 0.2);
  wf.cancellation_angle_rad = theta_good;
  EXPECT_LT(phy::simulate_waveform(budget, wf).measured_ber, 1e-3);
}

TEST(Integration, LifetimeMatrixAgreesWithDirectPlanComputation) {
  // Spot-check one Fig. 15 cell computed two independent ways.
  const hal::RadioBackend& backend = backends::braidio_backend();
  core::LifetimeSimulator sim(backend);
  const auto tx = energy::find_device("Pebble Watch");
  const auto rx = energy::find_device("Nexus 6P");
  ASSERT_TRUE(tx && rx);
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  cfg.bits_per_dwell = plan::kInfiniteDwell;
  const double gain = sim.gain_vs_bluetooth(*tx, *rx, cfg);

  // Independent: plan + closed forms.
  core::RegimeMap regimes(backend);
  const auto plan = plan::OffloadPlanner::plan(
      regimes.available_best_rate(0.5), util::wh_to_joules(tx->battery_wh),
      util::wh_to_joules(rx->battery_wh));
  const double braid_bits = plan.bits_until_depletion(
      util::wh_to_joules(tx->battery_wh), util::wh_to_joules(rx->battery_wh));
  const double bt_bits = sim.bluetooth_bits(
      util::to_joules(util::WattHours(tx->battery_wh)),
      util::to_joules(util::WattHours(rx->battery_wh)), false);
  EXPECT_NEAR(gain, braid_bits / bt_bits, 1e-6);
}

TEST(Integration, EndToEndEnergyConservation) {
  // Ledger totals must equal battery drain exactly for both radios.
  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes(backend);
  hal::StandardRadio a("a", 1, util::WattHours(0.26), backend.caps());
  hal::StandardRadio b("b", 2, util::WattHours(0.48), backend.caps());
  const double e1 = a.battery().remaining_joules();
  const double e2 = b.battery().remaining_joules();
  core::BraidedLinkConfig cfg;
  cfg.distance_m = 1.0;
  core::BraidedLink link(a, b, regimes, cfg);
  link.run(512);
  EXPECT_NEAR(a.ledger().total_joules(),
              e1 - a.battery().remaining_joules(), 1e-9);
  EXPECT_NEAR(b.ledger().total_joules(),
              e2 - b.battery().remaining_joules(), 1e-9);
}

TEST(Integration, OokBitsSurviveTheRealDicksonPump) {
  // Golden-path cross-validation: build the actual charge-pump netlist,
  // drive it with an OOK-keyed RF source (1 MHz demo carrier, 20 kbps
  // data), and recover the bits from the simulated output voltage with
  // the comparator model. This closes the loop between the circuit-level
  // and behavioural receive chains.
  using namespace circuits;
  const std::vector<std::uint8_t> bits{1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  const double bit_period = 50e-6;  // 20 kbps on a 1 MHz demo carrier
  const double carrier_hz = 1e6;

  Netlist net;
  const NodeId in = net.add_node("rf");
  net.add_voltage_source(in, 0, [&](double t) {
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(t / bit_period), bits.size() - 1);
    const double amp = bits[idx] ? 1.0 : 0.15;  // keyed carrier
    return amp * std::sin(2.0 * std::numbers::pi * carrier_hz * t);
  });
  // Fast single-stage pump: small caps so the envelope settles within a
  // bit period (the Table 4 "reduced Cs and Cp" configuration).
  const NodeId mid = net.add_node("mid");
  const NodeId out = net.add_node("out");
  net.add_capacitor(in, mid, 20e-12);
  Diode clamp;
  clamp.anode = 0;
  clamp.cathode = mid;
  net.add_diode(clamp);
  Diode series;
  series.anode = mid;
  series.cathode = out;
  net.add_diode(series);
  net.add_capacitor(out, 0, 20e-12);
  net.add_resistor(out, 0, 1e6);

  TransientOptions opts;
  opts.timestep_s = 2.5e-8;
  TransientSimulator sim(net, opts);
  const auto run = sim.run(bit_period * static_cast<double>(bits.size()), 8);

  // Slice the output at 3/4 of each bit period with a mid-level threshold.
  double hi = -1e9, lo = 1e9;
  for (const auto& s : run.samples) {
    hi = std::max(hi, s.node_volts[out]);
    lo = std::min(lo, s.node_volts[out]);
  }
  circuits::ComparatorConfig cc;
  cc.threshold_volts = 0.5 * (hi + lo);
  cc.hysteresis_volts = 0.05 * (hi - lo);
  circuits::Comparator comparator(cc);
  std::vector<std::uint8_t> decoded;
  std::size_t next_bit = 0;
  for (const auto& s : run.samples) {
    const bool out_state = comparator.step(s.node_volts[out]);
    const double sample_at =
        (static_cast<double>(next_bit) + 0.75) * bit_period;
    if (next_bit < bits.size() && s.time_s >= sample_at) {
      decoded.push_back(out_state ? 1 : 0);
      ++next_bit;
    }
  }
  ASSERT_EQ(decoded.size(), bits.size());
  EXPECT_EQ(decoded, bits);
}

TEST(Integration, TransientSolverHandlesRandomResistorLadders) {
  // Property: arbitrary resistor ladders must match the analytic
  // voltage-divider solution at steady state.
  using namespace circuits;
  util::Rng rng(0xFEED);
  for (int trial = 0; trial < 25; ++trial) {
    const int stages = 2 + static_cast<int>(rng.uniform_int(0, 4));
    Netlist net;
    const NodeId src = net.add_node("src");
    net.add_voltage_source(src, 0, [](double) { return 10.0; });
    NodeId prev = src;
    std::vector<double> series_r;
    std::vector<NodeId> taps;
    for (int k = 0; k < stages; ++k) {
      const NodeId tap = net.add_node();
      const double r = rng.uniform(100.0, 10'000.0);
      net.add_resistor(prev, tap, r);
      series_r.push_back(r);
      taps.push_back(tap);
      prev = tap;
    }
    const double r_end = rng.uniform(100.0, 10'000.0);
    net.add_resistor(prev, 0, r_end);
    series_r.push_back(r_end);

    TransientSimulator sim(net, {.timestep_s = 1e-6});
    const auto result = sim.run(1e-5);
    // Analytic: simple series chain, V(tap_k) = 10 * R_below / R_total.
    double total = 0.0;
    for (double r : series_r) total += r;
    double below = total;
    for (std::size_t k = 0; k < taps.size(); ++k) {
      below -= series_r[k];
      EXPECT_NEAR(result.steady_state(taps[k]), 10.0 * below / total, 1e-6)
          << "trial " << trial << " tap " << k;
    }
  }
}

}  // namespace
}  // namespace braidio
