#include "rf/interference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace braidio::rf {

double EnvelopeInterferenceModel::baseband_leakage(double offset_hz) const {
  if (offset_hz < 0.0) {
    throw std::domain_error("baseband_leakage: negative offset");
  }
  if (!(highpass_corner_hz > 0.0) || !(lowpass_corner_hz > 0.0) ||
      highpass_corner_hz >= lowpass_corner_hz) {
    throw std::domain_error("baseband_leakage: bad corner configuration");
  }
  const double rh = offset_hz / highpass_corner_hz;
  // Far above both corners the band-pass tends to 0; past ~1e154 corners
  // rh * rh overflows and the high-pass term would read inf / inf.
  if (std::isinf(rh * rh)) return 0.0;
  const double hp = (rh * rh) / (1.0 + rh * rh);  // first-order HP power
  const double rl = offset_hz / lowpass_corner_hz;
  const double lp = 1.0 / (1.0 + rl * rl);        // first-order LP power
  return hp * lp;
}

double EnvelopeInterferenceModel::effective_noise_watts(
    double noise_floor_w, const InterfererSpec& interferer) const {
  if (noise_floor_w < 0.0) {
    throw std::domain_error("effective_noise_watts: negative floor");
  }
  const double pi_w = util::dbm_to_watts(interferer.power_dbm);
  // Strong-carrier linearization: the interferer appears at baseband as a
  // beat tone at offset_hz whose power tracks the interferer's in-band
  // power, filtered by the detector's band-pass.
  const double leakage = baseband_leakage(interferer.offset_hz);
  // A beat the band-pass removes entirely adds nothing, however strong:
  // a power past ~3,100 dBm overflows to inf, and inf * 0 is NaN.
  if (leakage == 0.0) return noise_floor_w;
  return noise_floor_w + pi_w * leakage;
}

double EnvelopeInterferenceModel::snr_penalty_db(
    double noise_floor_dbm, const InterfererSpec& interferer) const {
  const double floor_w = util::dbm_to_watts(noise_floor_dbm);
  const double total = effective_noise_watts(floor_w, interferer);
  return util::linear_to_db(std::max(total / floor_w, 1.0));
}

}  // namespace braidio::rf
