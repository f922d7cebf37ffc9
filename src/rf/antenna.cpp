#include "rf/antenna.hpp"

#include <stdexcept>

namespace braidio::rf {

std::vector<Antenna> make_diversity_pair(const Vec2& center, double spacing_m,
                                         double gain_dbi, DiversityAxis axis) {
  if (!(spacing_m > 0.0)) {
    throw std::invalid_argument("make_diversity_pair: spacing must be > 0");
  }
  const double half = spacing_m / 2.0;
  if (axis == DiversityAxis::X) {
    return {Antenna{{center.x - half, center.y}, gain_dbi},
            Antenna{{center.x + half, center.y}, gain_dbi}};
  }
  return {Antenna{{center.x, center.y - half}, gain_dbi},
          Antenna{{center.x, center.y + half}, gain_dbi}};
}

}  // namespace braidio::rf
