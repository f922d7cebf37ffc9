// Circuit netlist description for the transient simulator.
//
// Supported elements: resistors, capacitors, Shockley diodes, and
// time-varying ideal voltage sources. Node 0 is ground. This is exactly the
// element set needed for the passive receive chain the paper builds
// (Dickson RF charge pump, envelope detector RC networks).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace braidio::circuits {

using NodeId = std::size_t;  // 0 is ground

struct Resistor {
  NodeId a = 0;
  NodeId b = 0;
  double ohms = 0.0;
};

struct Capacitor {
  NodeId a = 0;
  NodeId b = 0;
  double farads = 0.0;
  double initial_volts = 0.0;  // v(a) - v(b) at t = 0
};

/// Shockley diode: I = Is * (exp(V / (n * Vt)) - 1), V = v(anode)-v(cathode).
/// Defaults approximate an HSMS-285x detector Schottky (the class of diode
/// used in RF charge pumps / the WISP power harvester).
struct Diode {
  NodeId anode = 0;
  NodeId cathode = 0;
  double saturation_current = 3e-6;  // Is [A]
  double emission_coefficient = 1.06;
  double thermal_voltage = 0.02585;  // Vt at 300 K
  double series_resistance = 25.0;   // Rs [ohm], folded into the companion
};

/// Ideal voltage source with a time-varying waveform v(t).
struct VoltageSource {
  NodeId positive = 0;
  NodeId negative = 0;
  std::function<double(double)> waveform;  // volts as a function of seconds
};

/// Sinusoidal source waveform: offset + amplitude sin(2 pi f t + phase).
std::function<double(double)> sine_waveform(double amplitude, double freq_hz,
                                            double phase_rad = 0.0,
                                            double offset = 0.0);

class Netlist {
 public:
  /// Allocate a new node; returns its id (>= 1; 0 is ground).
  NodeId add_node(std::string label = {});

  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads,
                     double initial_volts = 0.0);
  void add_diode(const Diode& diode);
  void add_voltage_source(NodeId positive, NodeId negative,
                          std::function<double(double)> waveform);

  std::size_t node_count() const { return labels_.size(); }  // incl. ground
  const std::string& node_label(NodeId n) const { return labels_.at(n); }

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Diode>& diodes() const { return diodes_; }
  const std::vector<VoltageSource>& sources() const { return sources_; }

 private:
  void check_node(NodeId n) const;

  std::vector<std::string> labels_{"gnd"};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Diode> diodes_;
  std::vector<VoltageSource> sources_;
};

}  // namespace braidio::circuits
