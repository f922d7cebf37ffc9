// Battery model: a finite energy reservoir drained by the radio simulators.
//
// The paper's lifetime experiments (Figs. 15-18) run two devices until the
// first battery is exhausted; Battery is the primitive those experiments
// drain. The model is energy-only (no voltage sag / rate effects): the
// paper's simulator makes the same simplification.
#pragma once

#include "util/units.hpp"

namespace braidio::energy {

class Battery {
 public:
  /// Construct a full battery with the given capacity (> 0 Wh).
  explicit Battery(util::WattHours capacity);

  /// Capacity in joules.
  double capacity_joules() const { return capacity_j_; }

  /// Remaining energy in joules (never negative).
  double remaining_joules() const { return remaining_j_; }

  bool empty() const { return remaining_j_ <= 0.0; }

  /// Drain `request` (>= 0). Returns the energy actually drained, which
  /// is less than requested only when the battery empties.
  util::Joules drain(util::Joules request);

 private:
  double capacity_j_;
  double remaining_j_;
};

}  // namespace braidio::energy
