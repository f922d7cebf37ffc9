#include "circuits/inst_amp.hpp"

#include <stdexcept>

namespace braidio::circuits {

InstAmp::InstAmp(InstAmpConfig config) : config_(config) {
  if (!(config_.gain > 0.0) || !(config_.input_resistance_ohms > 0.0) ||
      config_.input_capacitance_farads < 0.0 ||
      !(config_.gain_bandwidth_hz > 0.0)) {
    throw std::invalid_argument("InstAmp: bad config");
  }
}

double InstAmp::power_watts() const {
  return config_.supply_current_amps * config_.supply_volts;
}

}  // namespace braidio::circuits
