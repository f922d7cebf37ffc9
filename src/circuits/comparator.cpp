#include "circuits/comparator.hpp"

#include <stdexcept>

namespace braidio::circuits {

Comparator::Comparator(ComparatorConfig config) : config_(config) {
  if (config_.hysteresis_volts < 0.0 || config_.min_overdrive_volts < 0.0 ||
      config_.supply_current_amps < 0.0 || config_.supply_volts < 0.0) {
    throw std::invalid_argument("Comparator: negative parameter");
  }
}

bool Comparator::step(double input_volts) {
  const double half = config_.hysteresis_volts / 2.0;
  const double rise =
      config_.threshold_volts + half + config_.min_overdrive_volts;
  const double fall =
      config_.threshold_volts - half - config_.min_overdrive_volts;
  if (!state_ && input_volts > rise) {
    state_ = true;
  } else if (state_ && input_volts < fall) {
    state_ = false;
  }
  return state_;
}

double Comparator::power_watts() const {
  return config_.supply_current_amps * config_.supply_volts;
}

}  // namespace braidio::circuits
