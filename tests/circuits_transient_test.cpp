#include "circuits/transient.hpp"

#include <cmath>
#include <functional>
#include <numbers>

#include <gtest/gtest.h>

#include "circuits/netlist.hpp"

namespace braidio::circuits {
namespace {

/// A constant source waveform.
std::function<double(double)> dc(double volts) {
  return [volts](double) { return volts; };
}

TEST(Netlist, NodeAllocationAndValidation) {
  Netlist net;
  EXPECT_EQ(net.node_count(), 1u);  // ground pre-exists
  const NodeId a = net.add_node("a");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(net.node_label(a), "a");
  EXPECT_EQ(net.node_label(0), "gnd");
  EXPECT_THROW(net.add_resistor(a, 5, 100.0), std::out_of_range);
  EXPECT_THROW(net.add_resistor(a, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(net.add_capacitor(a, 0, -1e-9), std::invalid_argument);
  EXPECT_THROW(net.add_voltage_source(a, 0, nullptr), std::invalid_argument);
}

TEST(Netlist, WaveformHelpers) {
  const auto sine = sine_waveform(2.0, 1e6);
  EXPECT_NEAR(sine(0.0), 0.0, 1e-12);
  EXPECT_NEAR(sine(0.25e-6), 2.0, 1e-9);  // quarter period peak
}

TEST(Transient, ResistorDividerSteadyState) {
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId mid = net.add_node("mid");
  net.add_voltage_source(in, 0, dc(10.0));
  net.add_resistor(in, mid, 1000.0);
  net.add_resistor(mid, 0, 3000.0);
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  const auto result = sim.run(1e-5);
  EXPECT_NEAR(result.steady_state(mid), 7.5, 1e-9);
  EXPECT_NEAR(result.steady_state(in), 10.0, 1e-9);
}

TEST(Transient, RcChargingMatchesAnalyticExponential) {
  // 1 kohm + 1 uF driven by a 5 V step: v(t) = 5 (1 - e^{-t/RC}).
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId out = net.add_node("out");
  net.add_voltage_source(in, 0, dc(5.0));
  net.add_resistor(in, out, 1000.0);
  net.add_capacitor(out, 0, 1e-6);
  TransientSimulator sim(net, {.timestep_s = 5e-6});
  const auto result = sim.run(5e-3);
  const double tau = 1e-3;
  for (const auto& s : result.samples) {
    if (s.time_s == 0.0) continue;
    const double expected = 5.0 * (1.0 - std::exp(-s.time_s / tau));
    EXPECT_NEAR(s.node_volts[out], expected, 0.05) << "t=" << s.time_s;
  }
  // At 5 tau the analytic value is 5 (1 - e^-5) = 4.966.
  EXPECT_NEAR(result.samples.back().node_volts[out],
              5.0 * (1.0 - std::exp(-5.0)), 0.02);
}

TEST(Transient, CapacitorInitialConditionHonored) {
  Netlist net;
  const NodeId out = net.add_node("out");
  net.add_resistor(out, 0, 1000.0);
  net.add_capacitor(out, 0, 1e-6, 2.0);
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  const auto result = sim.run(1e-4);
  EXPECT_NEAR(result.samples.front().node_volts[out], 2.0, 1e-6);
  // Discharges through the resistor.
  EXPECT_LT(result.samples.back().node_volts[out], 2.0 * std::exp(-0.09));
}

TEST(Transient, DiodeForwardDropIsRealistic) {
  // DC source -> resistor -> diode to ground: the junction settles near the
  // Schottky forward voltage and satisfies the diode equation.
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId anode = net.add_node("anode");
  net.add_voltage_source(in, 0, dc(3.0));
  net.add_resistor(in, anode, 10'000.0);
  Diode d;
  d.anode = anode;
  d.cathode = 0;
  d.series_resistance = 0.0;
  net.add_diode(d);
  TransientSimulator sim(net, {.timestep_s = 1e-7});
  const auto result = sim.run(1e-5);
  const double v = result.steady_state(anode);
  EXPECT_GT(v, 0.05);
  EXPECT_LT(v, 0.45);  // Schottky, not silicon
  const double i_r = (3.0 - v) / 10'000.0;
  const double i_d =
      d.saturation_current *
      (std::exp(v / (d.emission_coefficient * d.thermal_voltage)) - 1.0);
  EXPECT_NEAR(i_r / i_d, 1.0, 0.02);
}

TEST(Transient, DiodeBlocksReverse) {
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId out = net.add_node("out");
  net.add_voltage_source(in, 0, dc(-3.0));
  net.add_resistor(in, out, 1000.0);
  Diode d;
  d.anode = out;
  d.cathode = 0;
  d.series_resistance = 0.0;
  net.add_diode(d);
  TransientSimulator sim(net, {.timestep_s = 1e-7});
  const auto result = sim.run(1e-5);
  // Reverse current is ~Is; the drop across 1k is millivolts.
  EXPECT_NEAR(result.steady_state(out), -3.0, 0.02);
}

TEST(Transient, HalfWaveRectifierWithSmoothing) {
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId out = net.add_node("out");
  net.add_voltage_source(in, 0, sine_waveform(2.0, 1e5));
  Diode d;
  d.anode = in;
  d.cathode = out;
  d.series_resistance = 10.0;
  net.add_diode(d);
  net.add_capacitor(out, 0, 1e-7);
  net.add_resistor(out, 0, 1e6);
  TransientSimulator sim(net, {.timestep_s = 2.5e-8});
  const auto result = sim.run(2e-4, 4);
  const double v = result.steady_state(out);
  EXPECT_GT(v, 1.4);  // peak minus diode drop
  EXPECT_LT(v, 2.0);
  EXPECT_LT(result.ripple(out), 0.2);
}

TEST(Transient, SingularCircuitReported) {
  Netlist net;
  const NodeId a = net.add_node("floating");
  const NodeId b = net.add_node("b");
  net.add_resistor(a, b, 1000.0);  // island with no path to ground
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  EXPECT_THROW(sim.run(1e-5), std::runtime_error);
}

TEST(Transient, InputValidation) {
  Netlist net;
  const NodeId a = net.add_node();
  net.add_resistor(a, 0, 100.0);
  EXPECT_THROW(TransientSimulator(net, {.timestep_s = 0.0}),
               std::invalid_argument);
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  EXPECT_THROW(sim.run(0.0), std::invalid_argument);
  EXPECT_THROW(TransientSimulator(Netlist{}, {}), std::invalid_argument);
}

TEST(TransientResult, TraceAndStatsHelpers) {
  Netlist net;
  const NodeId in = net.add_node("in");
  net.add_voltage_source(in, 0, dc(1.0));
  net.add_resistor(in, 0, 1.0);
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  const auto result = sim.run(1e-5);
  EXPECT_NEAR(result.samples.back().node_volts[in], 1.0, 1e-9);
  EXPECT_NEAR(result.ripple(in), 0.0, 1e-9);
  TransientResult empty;
  EXPECT_THROW(empty.steady_state(0), std::logic_error);
  EXPECT_THROW(empty.ripple(0), std::logic_error);
}

TEST(Transient, RecordEveryDecimatesSamples) {
  Netlist net;
  const NodeId in = net.add_node("in");
  net.add_voltage_source(in, 0, dc(1.0));
  net.add_resistor(in, 0, 1.0);
  TransientSimulator sim(net, {.timestep_s = 1e-6});
  const auto full = sim.run(1e-4, 1);
  const auto thin = sim.run(1e-4, 10);
  EXPECT_GT(full.samples.size(), 9 * thin.samples.size() / 2);
}

class TimestepConvergence : public ::testing::TestWithParam<double> {};

TEST_P(TimestepConvergence, RcStepErrorShrinksWithTimestep) {
  // Backward Euler is first order: error at t = tau scales with h.
  const double h = GetParam();
  Netlist net;
  const NodeId in = net.add_node("in");
  const NodeId out = net.add_node("out");
  net.add_voltage_source(in, 0, dc(1.0));
  net.add_resistor(in, out, 1000.0);
  net.add_capacitor(out, 0, 1e-6);
  TransientSimulator sim(net, {.timestep_s = h});
  const auto result = sim.run(1e-3);
  const double expected = 1.0 - std::exp(-1.0);
  const double err =
      std::fabs(result.samples.back().node_volts[out] - expected);
  EXPECT_LT(err, 1.5 * h / 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TimestepConvergence,
                         ::testing::Values(4e-5, 2e-5, 1e-5, 5e-6));

}  // namespace
}  // namespace braidio::circuits
