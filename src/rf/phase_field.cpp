#include "rf/phase_field.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/math.hpp"
#include "util/units.hpp"

namespace braidio::rf {

PhaseField::PhaseField(PhaseFieldConfig config) : config_(config) {
  if (!(config_.freq_hz > 0.0)) {
    throw std::invalid_argument("PhaseField: frequency must be > 0");
  }
  if (!(config_.noise_amplitude > 0.0)) {
    throw std::invalid_argument("PhaseField: noise amplitude must be > 0");
  }
  lambda_ = util::wavelength_m(config_.freq_hz);
}

std::complex<double> PhaseField::propagate(const Vec2& from,
                                           const Vec2& to) const {
  const double d = std::max(distance(from, to), config_.min_distance_m);
  const double amp = lambda_ / (4.0 * std::numbers::pi * d);
  const double phase = -2.0 * std::numbers::pi * d / lambda_;
  return std::polar(std::min(amp, 1.0), phase);
}

std::complex<double> PhaseField::background(const Vec2& rx) const {
  return config_.carrier_amplitude * propagate(config_.carrier_antenna, rx);
}

std::complex<double> PhaseField::tag_vector(const Vec2& tag,
                                            const Vec2& rx) const {
  const std::complex<double> incident =
      config_.carrier_amplitude * propagate(config_.carrier_antenna, tag);
  return incident * config_.tag_reflection * propagate(tag, rx);
}

double PhaseField::envelope_amplitude(const Vec2& tag, const Vec2& rx) const {
  const std::complex<double> bg = background(rx);
  const std::complex<double> vt = tag_vector(tag, rx);
  // Antisymmetric modulation: state 0 contributes +vt, state 1 contributes
  // -vt. The envelope detector sees the difference in magnitudes.
  return std::abs(std::abs(bg + vt) - std::abs(bg - vt));
}

double PhaseField::snr_db(const Vec2& tag, const Vec2& rx) const {
  const double a = envelope_amplitude(tag, rx);
  const double snr =
      (a * a) / (2.0 * config_.noise_amplitude * config_.noise_amplitude);
  return util::linear_to_db(std::max(snr, 1e-12));
}

double PhaseField::snr_db_diversity(
    const Vec2& tag, const std::vector<Antenna>& antennas) const {
  if (antennas.empty()) {
    throw std::invalid_argument("snr_db_diversity: no antennas");
  }
  double best = -1e300;
  for (const auto& ant : antennas) {
    best = std::max(best, snr_db(tag, ant.position));
  }
  return best;
}

std::vector<PhaseField::GridSample> PhaseField::sample_grid(
    double x_lo, double x_hi, double y_lo, double y_hi, std::size_t nx,
    std::size_t ny) const {
  if (nx < 2 || ny < 2) {
    throw std::invalid_argument("sample_grid: need nx, ny >= 2");
  }
  const auto xs = util::linspace(x_lo, x_hi, nx);
  const auto ys = util::linspace(y_lo, y_hi, ny);
  std::vector<GridSample> out;
  out.reserve(nx * ny);
  for (double y : ys) {
    for (double x : xs) {
      const Vec2 tag{x, y};
      const double a = envelope_amplitude(tag, config_.receive_antenna);
      out.push_back({tag, util::linear_to_db(std::max(a * a, 1e-30))});
    }
  }
  return out;
}

std::vector<PhaseField::LineSample> PhaseField::sample_line(
    double x_lo, double x_hi, double y, std::size_t n,
    double diversity_spacing_m) const {
  if (n < 2) throw std::invalid_argument("sample_line: need n >= 2");
  // Collinear spacing: for a tag beyond the pair, moving the receive
  // antenna by d shortens the tag path and lengthens the self-interference
  // path, so the relative phase shifts by 2 k d — lambda/8 spacing yields a
  // pi/2 offset between the two antennas and their nulls cannot coincide.
  const auto antennas = make_diversity_pair(
      config_.receive_antenna, diversity_spacing_m, 0.0, DiversityAxis::X);
  const auto xs = util::linspace(x_lo, x_hi, n);
  std::vector<LineSample> out;
  out.reserve(n);
  for (double x : xs) {
    const Vec2 tag{x, y};
    out.push_back({x, snr_db(tag, config_.receive_antenna),
                   snr_db_diversity(tag, antennas)});
  }
  return out;
}

}  // namespace braidio::rf
