// Antenna descriptions and placement for the field simulations.
#pragma once

#include <vector>

#include "rf/geometry.hpp"

namespace braidio::rf {

struct Antenna {
  Vec2 position;          // meters
  double gain_dbi = 0.0;  // boresight gain; chip antennas are near-isotropic
};

enum class DiversityAxis { X, Y };

/// A diversity pair: two receive antennas spaced `spacing_m` apart along the
/// chosen axis, centered on `center`. Mirrors the Braidio PCB layout (two
/// chip antennas lambda/8 apart). Note that a pair collinear with the
/// tag-carrier axis is degenerate — both antennas see the same relative
/// phase between background and backscatter vectors — so boards mount the
/// pair broadside to the expected link direction (DiversityAxis::Y here).
std::vector<Antenna> make_diversity_pair(const Vec2& center, double spacing_m,
                                         double gain_dbi = 0.0,
                                         DiversityAxis axis = DiversityAxis::X);

}  // namespace braidio::rf
