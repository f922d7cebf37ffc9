#include "rf/saw_filter.hpp"

#include <algorithm>
#include <stdexcept>

namespace braidio::rf {

SawFilter::SawFilter(SawFilterSpec spec) : spec_(spec) {
  if (!(spec_.passband_low_hz < spec_.passband_high_hz)) {
    throw std::invalid_argument("SawFilter: passband_low must be < high");
  }
  if (spec_.insertion_loss_db < 0.0 || spec_.transition_width_hz <= 0.0) {
    throw std::invalid_argument("SawFilter: bad loss/transition parameters");
  }
}

bool SawFilter::in_band(double freq_hz) const {
  return freq_hz >= spec_.passband_low_hz && freq_hz <= spec_.passband_high_hz;
}

double SawFilter::stopband_db(double freq_hz) const {
  // Named suppression points from the datasheet, else the default floor.
  if (freq_hz >= 780e6 && freq_hz <= 880e6) return spec_.suppression_800_db;
  if (freq_hz >= 2.4e9 && freq_hz <= 2.5e9) return spec_.suppression_2g4_db;
  return spec_.suppression_default_db;
}

double SawFilter::attenuation_db(double freq_hz) const {
  if (!(freq_hz > 0.0)) throw std::domain_error("SawFilter: freq must be > 0");
  if (in_band(freq_hz)) return spec_.insertion_loss_db;
  const double stop = stopband_db(freq_hz);
  // Linear skirt from the band edge out to transition_width.
  const double dist = freq_hz < spec_.passband_low_hz
                          ? spec_.passband_low_hz - freq_hz
                          : freq_hz - spec_.passband_high_hz;
  const double t = std::min(1.0, dist / spec_.transition_width_hz);
  return spec_.insertion_loss_db + t * (stop - spec_.insertion_loss_db);
}

}  // namespace braidio::rf
