#include "circuits/netlist.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace braidio::circuits {

std::function<double(double)> sine_waveform(double amplitude, double freq_hz,
                                            double phase_rad, double offset) {
  return [=](double t) {
    return offset +
           amplitude * std::sin(2.0 * std::numbers::pi * freq_hz * t +
                                phase_rad);
  };
}

NodeId Netlist::add_node(std::string label) {
  if (label.empty()) {
    // push_back + append: GCC 12's -Wrestrict misfires on "n" + string.
    label.push_back('n');
    label += std::to_string(labels_.size());
  }
  labels_.push_back(std::move(label));
  return labels_.size() - 1;
}

void Netlist::check_node(NodeId n) const {
  if (n >= labels_.size()) {
    throw std::out_of_range("Netlist: node id " + std::to_string(n) +
                            " was never allocated");
  }
}

void Netlist::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a);
  check_node(b);
  if (!(ohms > 0.0)) throw std::invalid_argument("resistor: ohms must be > 0");
  resistors_.push_back({a, b, ohms});
}

void Netlist::add_capacitor(NodeId a, NodeId b, double farads,
                            double initial_volts) {
  check_node(a);
  check_node(b);
  if (!(farads > 0.0)) {
    throw std::invalid_argument("capacitor: farads must be > 0");
  }
  capacitors_.push_back({a, b, farads, initial_volts});
}

void Netlist::add_diode(const Diode& diode) {
  check_node(diode.anode);
  check_node(diode.cathode);
  if (!(diode.saturation_current > 0.0) ||
      !(diode.emission_coefficient > 0.0) ||
      !(diode.thermal_voltage > 0.0) || diode.series_resistance < 0.0) {
    throw std::invalid_argument("diode: bad parameters");
  }
  diodes_.push_back(diode);
}

void Netlist::add_voltage_source(NodeId positive, NodeId negative,
                                 std::function<double(double)> waveform) {
  check_node(positive);
  check_node(negative);
  if (!waveform) throw std::invalid_argument("voltage source: null waveform");
  sources_.push_back({positive, negative, std::move(waveform)});
}

}  // namespace braidio::circuits
