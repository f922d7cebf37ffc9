#include "circuits/charge_pump.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace braidio::circuits {
namespace {

TEST(ChargePump, Figure3SingleStageDoublesVoltage) {
  // The paper's Fig. 3(b): a 1 V sine into a single-stage RF charge pump
  // produces ~2 V DC at the output (ideal 2 V minus diode conduction loss
  // with real Schottky parameters).
  ChargePump pump;
  const auto run = pump.simulate(20e-6, 0.0, 8);
  EXPECT_GT(run.steady_state_volts, 1.6);
  EXPECT_LT(run.steady_state_volts, 2.0);
  EXPECT_DOUBLE_EQ(pump.ideal_output_volts(), 2.0);
  EXPECT_LT(run.ripple_volts, 0.1);
}

TEST(ChargePump, OutputIsMonotoneRampToSteadyState) {
  ChargePump pump;
  const auto run = pump.simulate(20e-6, 0.0, 8);
  std::vector<double> trace;
  for (const auto& sample : run.transient.samples) {
    trace.push_back(sample.node_volts[run.output_node]);
  }
  // Starts near zero, ends near steady state, overall increasing trend.
  EXPECT_LT(trace.front(), 0.1);
  EXPECT_GT(trace.back(), 0.9 * run.steady_state_volts);
  int decreases = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] < trace[i - 1] - 0.02) ++decreases;
  }
  EXPECT_LT(decreases, static_cast<int>(trace.size() / 20));
}

TEST(ChargePump, MidNodeSwingsWithInput) {
  // Node "B" (between the diodes) carries the input swing shifted upward
  // (Fig. 3(b), the 0..2 V trace).
  ChargePump pump;
  const auto run = pump.simulate(20e-6, 0.0, 2);
  ASSERT_EQ(run.mid_nodes.size(), 1u);
  const double ripple = run.transient.ripple(run.mid_nodes[0]);
  EXPECT_GT(ripple, 1.0);  // swings with the full drive amplitude
  const double mean = run.transient.steady_state(run.mid_nodes[0]);
  EXPECT_GT(mean, 0.4);  // clamped above ground
}

TEST(ChargePump, StagesMultiplyBoost) {
  ChargePumpConfig c1;
  ChargePumpConfig c3;
  c3.stages = 3;
  const auto r1 = ChargePump(c1).simulate(20e-6, 0.0, 16);
  const auto r3 = ChargePump(c3).simulate(60e-6, 0.0, 16);
  EXPECT_GT(r3.steady_state_volts, 2.2 * r1.steady_state_volts);
  EXPECT_DOUBLE_EQ(ChargePump(c3).ideal_output_volts(), 6.0);
}

TEST(ChargePump, WeakInputsSufferDiodeLossesDisproportionately) {
  // Sensitivity story of Sec. 3.2: the pump's conduction losses eat a
  // larger fraction of a weak signal, which is why the instrumentation
  // amplifier is needed at low RF input levels.
  ChargePumpConfig strong;
  strong.source_amplitude = 1.0;
  ChargePumpConfig weak;
  weak.source_amplitude = 0.25;
  const auto rs = ChargePump(strong).simulate(20e-6, 0.0, 16);
  const auto rw = ChargePump(weak).simulate(20e-6, 0.0, 16);
  const double eff_strong = rs.steady_state_volts / (2.0 * 1.0);
  const double eff_weak = rw.steady_state_volts / (2.0 * 0.25);
  EXPECT_LT(eff_weak, eff_strong);
}

TEST(ChargePump, HeavierLoadDropsOutput) {
  // Zout ~ N/(f C): loading the pump below its output impedance collapses
  // the boost — the reason the amplifier must be high-impedance.
  ChargePumpConfig light;
  light.load_resistance = 1e6;
  ChargePumpConfig heavy;
  heavy.load_resistance = 5e3;  // well below Zout = 10 kohm
  const auto rl = ChargePump(light).simulate(20e-6, 0.0, 16);
  const auto rh = ChargePump(heavy).simulate(20e-6, 0.0, 16);
  EXPECT_LT(rh.steady_state_volts, 0.75 * rl.steady_state_volts);
}

TEST(ChargePump, OutputImpedanceFormula) {
  ChargePumpConfig c;
  c.stages = 2;
  c.source_frequency_hz = 1e6;
  c.coupling_capacitance = 100e-12;
  EXPECT_DOUBLE_EQ(ChargePump(c).output_impedance_ohms(), 20'000.0);
}

TEST(ChargePump, MeasuredBoostHelper) {
  ChargePumpConfig c;
  c.source_amplitude = 0.5;
  ChargePump pump(c);
  const auto run = pump.simulate(20e-6, 0.0, 16);
  EXPECT_NEAR(pump.measured_boost(run),
              run.steady_state_volts / 0.5, 1e-12);
}

TEST(ChargePump, ConfigValidation) {
  ChargePumpConfig bad;
  bad.stages = 0;
  EXPECT_THROW(ChargePump{bad}, std::invalid_argument);
  ChargePumpConfig bad2;
  bad2.load_resistance = 0.0;
  EXPECT_THROW(ChargePump{bad2}, std::invalid_argument);
  ChargePump pump;
  EXPECT_THROW(pump.simulate(0.0), std::invalid_argument);
}

class PumpAmplitudeSweep : public ::testing::TestWithParam<double> {};

TEST_P(PumpAmplitudeSweep, OutputScalesWithDrive) {
  // Output tracks ~2*A - const(losses): monotone in amplitude and bounded
  // by the ideal doubler.
  const double amp = GetParam();
  ChargePumpConfig c;
  c.source_amplitude = amp;
  const auto run = ChargePump(c).simulate(20e-6, 0.0, 16);
  EXPECT_LT(run.steady_state_volts, 2.0 * amp);
  EXPECT_GT(run.steady_state_volts, 2.0 * amp - 0.6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PumpAmplitudeSweep,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0, 1.5, 2.0));

}  // namespace
}  // namespace braidio::circuits
