#include "rf/pathloss.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::rf {

namespace {
void check_args(double distance_m, double freq_hz) {
  BRAIDIO_REQUIRE(!std::isnan(distance_m) && std::isfinite(freq_hz),
                  "distance_m", distance_m, "freq_hz", freq_hz);
  if (distance_m < 0.0) {
    throw std::domain_error("pathloss: negative distance");
  }
  if (!(freq_hz > 0.0)) {
    throw std::domain_error("pathloss: frequency must be > 0");
  }
}

// Far-field power gains are linear fractions of the transmit power.
double check_gain(double gain) {
  BRAIDIO_ENSURE(std::isfinite(gain) && 0.0 <= gain && gain <= 1.0, "gain",
                 gain);
  return gain;
}
}  // namespace

double friis_gain(double distance_m, double freq_hz, double tx_gain_dbi,
                  double rx_gain_dbi, double min_distance_m) {
  check_args(distance_m, freq_hz);
  const double d = std::max(distance_m, min_distance_m);
  const double lambda = util::wavelength_m(freq_hz);
  const double geom = lambda / (4.0 * std::numbers::pi * d);
  const double gain = util::db_to_linear(tx_gain_dbi + rx_gain_dbi);
  return check_gain(std::min(1.0, gain * geom * geom));
}

double backscatter_gain(double distance_m, double freq_hz,
                        double reader_gain_dbi, double tag_gain_dbi,
                        double modulation_loss_db, double min_distance_m) {
  check_args(distance_m, freq_hz);
  const double d = std::max(distance_m, min_distance_m);
  const double lambda = util::wavelength_m(freq_hz);
  const double geom = lambda / (4.0 * std::numbers::pi * d);
  // Forward leg reader->tag and reflected leg tag->reader each contribute
  // geom^2; the antennas each appear twice (transmit + receive role).
  const double gain_db =
      2.0 * reader_gain_dbi + 2.0 * tag_gain_dbi - modulation_loss_db;
  const double g4 = geom * geom * geom * geom;
  return check_gain(std::min(1.0, util::db_to_linear(gain_db) * g4));
}

}  // namespace braidio::rf
