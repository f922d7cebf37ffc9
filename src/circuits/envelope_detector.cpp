#include "circuits/envelope_detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace braidio::circuits {

namespace {
double one_pole_alpha(double corner_hz, double sample_rate_hz) {
  // alpha = dt / (rc + dt) for the low-pass form.
  const double rc = 1.0 / (2.0 * std::numbers::pi * corner_hz);
  const double dt = 1.0 / sample_rate_hz;
  return dt / (rc + dt);
}
}  // namespace

EnvelopeDetector::EnvelopeDetector(EnvelopeDetectorConfig config)
    : config_(config) {
  if (!(config_.sample_rate_hz > 0.0) || !(config_.lowpass_corner_hz > 0.0) ||
      !(config_.highpass_corner_hz > 0.0) || !(config_.boost > 0.0)) {
    throw std::invalid_argument("EnvelopeDetector: bad config");
  }
  if (config_.highpass_corner_hz >= config_.lowpass_corner_hz) {
    throw std::invalid_argument(
        "EnvelopeDetector: highpass corner must sit below lowpass corner");
  }
  lp_alpha_ = one_pole_alpha(config_.lowpass_corner_hz, config_.sample_rate_hz);
  hp_alpha_ = 1.0 - one_pole_alpha(config_.highpass_corner_hz,
                                   config_.sample_rate_hz);
}

double EnvelopeDetector::step(double envelope_volts) {
  // Rectification + pump boost with conduction loss; output cannot go
  // negative (the diodes only pump charge one way).
  const double pumped =
      std::max(0.0, config_.boost * std::fabs(envelope_volts) -
                        config_.diode_drop_volts);
  // Low-pass (storage cap).
  lp_state_ += lp_alpha_ * (pumped - lp_state_);
  // High-pass (series cap into the amplifier): y[n] = a*(y[n-1] + x[n] -
  // x[n-1]). Prime the filter on the first sample so a step at t=0 doesn't
  // produce a spurious full-scale transient.
  if (!hp_primed_) {
    hp_prev_in_ = lp_state_;
    hp_primed_ = true;
  }
  hp_state_ = hp_alpha_ * (hp_state_ + lp_state_ - hp_prev_in_);
  hp_prev_in_ = lp_state_;
  return hp_state_;
}

std::vector<double> EnvelopeDetector::process(
    const std::vector<double>& envelope) {
  std::vector<double> out;
  out.reserve(envelope.size());
  for (double v : envelope) out.push_back(step(v));
  return out;
}

}  // namespace braidio::circuits
