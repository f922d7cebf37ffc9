#include "util/units.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::util {

double dbm_to_watts(double dbm) {
  BRAIDIO_REQUIRE(!std::isnan(dbm), "dbm", dbm);
  return std::pow(10.0, dbm / 10.0) * 1e-3;
}

double watts_to_dbm(double watts) {
  if (!(watts > 0.0)) {
    throw std::domain_error("watts_to_dbm: power must be > 0");
  }
  return 10.0 * std::log10(watts * 1e3);
}

double db_to_linear(double db) {
  BRAIDIO_REQUIRE(!std::isnan(db), "db", db);
  return std::pow(10.0, db / 10.0);
}

double linear_to_db(double ratio) {
  if (!(ratio > 0.0)) {
    throw std::domain_error("linear_to_db: ratio must be > 0");
  }
  return 10.0 * std::log10(ratio);
}

double wh_to_joules(double wh) {
  BRAIDIO_REQUIRE(!std::isnan(wh), "wh", wh);
  return wh * 3600.0;
}

double joules_to_wh(double joules) {
  BRAIDIO_REQUIRE(!std::isnan(joules), "joules", joules);
  return joules / 3600.0;
}

double wavelength_m(double freq_hz) {
  if (!(freq_hz > 0.0)) {
    throw std::domain_error("wavelength_m: frequency must be > 0");
  }
  return kSpeedOfLight / freq_hz;
}

Joules to_joules(WattHours energy) {
  return Joules(wh_to_joules(energy.value()));
}

WattHours to_watt_hours(Joules energy) {
  return WattHours(joules_to_wh(energy.value()));
}

Watts to_watts(Dbm level) { return Watts(dbm_to_watts(level.value())); }

Dbm to_dbm(Watts power) { return Dbm(watts_to_dbm(power.value())); }

}  // namespace braidio::util
