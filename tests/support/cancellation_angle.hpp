// The Fig. 4(a) cancellation angle, for tests that check the phase
// field's envelope and the waveform simulator against it. Test support,
// not part of the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>

#include "rf/phase_field.hpp"

namespace braidio::rf {

/// The angle theta between the differential tag vector and the background
/// vector at `rx` [radians, in [0, pi/2]]; theta ~ pi/2 marks a null.
inline double cancellation_angle(const PhaseField& field, const Vec2& tag,
                                 const Vec2& rx) {
  const std::complex<double> bg = field.background(rx);
  const std::complex<double> vt = field.tag_vector(tag, rx);
  const double denom = std::abs(bg) * std::abs(vt);
  if (denom == 0.0) return 0.0;
  const double c = std::clamp(
      (bg.real() * vt.real() + bg.imag() * vt.imag()) / denom, -1.0, 1.0);
  // The tag flips sign between states, so theta and pi - theta are
  // equivalent: fold into [0, pi/2].
  return std::acos(std::fabs(c));
}

}  // namespace braidio::rf
