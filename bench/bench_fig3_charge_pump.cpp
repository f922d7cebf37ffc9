// Figure 3: circuit diagram and simulated output of the RF charge pump.
// Regenerates Fig. 3(b): input (A), between-diodes (B) and output (C)
// waveforms of a single-stage pump driven by a 1 V sine.
#include <iostream>

#include "circuits/charge_pump.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Figure 3",
                        "Simulated output of the RF charge pump");

  circuits::ChargePump pump;  // 1 stage, 1 V drive (Fig. 3 configuration)
  const auto run = pump.simulate(10e-6, 0.0, 1);

  // Print the three traces at ~0.5 us resolution, like the paper's plot.
  util::TablePrinter table({"t [us]", "A: input [V]", "B: mid [V]",
                            "C: output [V]"});
  const auto& samples = run.transient.samples;
  const std::size_t stride = samples.size() / 20;
  for (std::size_t i = 0; i < samples.size(); i += stride) {
    const auto& s = samples[i];
    table.add_row({util::format_fixed(s.time_s * 1e6, 2),
                   util::format_fixed(s.node_volts[run.input_node], 3),
                   util::format_fixed(s.node_volts[run.mid_nodes[0]], 3),
                   util::format_fixed(s.node_volts[run.output_node], 3)});
  }
  table.print(std::cout);

  const auto settled = pump.simulate(40e-6, 0.0, 16);
  report.check("steady-state output from 1 V sine", "~2 V (ideal diodes)",
               util::format_fixed(settled.steady_state_volts, 2) +
                   " V (HSMS-285x Schottky losses)");
  report.check("mid node B", "swings 0..2 V",
               "ripple " +
                   util::format_fixed(
                       settled.transient.ripple(settled.mid_nodes[0]),
                       2) +
                   " V around " +
                   util::format_fixed(
                       settled.transient.steady_state(
                           settled.mid_nodes[0]),
                       2) +
                   " V");
  report.check("pump output impedance (why the amp must be hi-Z)",
               "N / (f C)",
               util::format_fixed(pump.output_impedance_ohms() / 1e3,
                                  1) +
                   " kohm");
  return 0;
}
