#include "energy/battery.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::energy {

namespace {
double checked_capacity_j(double capacity_wh) {
  // Validate before converting so a NaN/non-positive capacity surfaces as
  // the documented exception, not a unit-conversion contract failure.
  if (!(capacity_wh > 0.0)) {
    throw std::invalid_argument("Battery: capacity must be > 0 Wh");
  }
  BRAIDIO_REQUIRE(std::isfinite(capacity_wh), "capacity_wh", capacity_wh);
  return util::wh_to_joules(capacity_wh);
}
}  // namespace

Battery::Battery(util::WattHours capacity)
    : capacity_j_(checked_capacity_j(capacity.value())),
      remaining_j_(capacity_j_) {}

util::Joules Battery::drain(util::Joules request) {
  const double joules = request.value();
  if (joules < 0.0) throw std::invalid_argument("Battery::drain: negative");
  util::contract::check_nonneg_energy_j(joules, "Battery::drain");
  const double taken = std::min(joules, remaining_j_);
  remaining_j_ -= taken;
  // The reservoir can never go negative or above capacity.
  BRAIDIO_INVARIANT(0.0 <= remaining_j_ && remaining_j_ <= capacity_j_,
                    "remaining_j", remaining_j_, "capacity_j", capacity_j_);
  return util::Joules(taken);
}

}  // namespace braidio::energy
