// Unit conversions, physical constants, and strong physical-unit types.
//
// All internal computation uses SI units (watts, joules, seconds, hertz,
// meters). Radio engineering values are frequently quoted in dBm / dB /
// watt-hours; the helpers here are the single place those conversions live.
//
// The Quantity<> strong types (Joules, Seconds, Watts, Dbm, Hertz,
// WattHours) make unit mistakes a compile error at module boundaries:
// public APIs in src/energy, src/core, src/mac, and src/phy take these
// instead of raw doubles (analyzer rule A3, DESIGN.md section 13). They
// are zero-overhead wrappers — one double, trivially copyable, same size
// and alignment as double — and every construction/extraction is explicit,
// so a dBm can never silently flow into a watt parameter.
#pragma once

#include <compare>
#include <limits>
#include <type_traits>

namespace braidio::util {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Convert a power level in dBm to watts.
double dbm_to_watts(double dbm);

/// Convert a power level in watts to dBm. Requires watts > 0.
double watts_to_dbm(double watts);

/// Convert a ratio expressed in dB to a linear power ratio.
double db_to_linear(double db);

/// Convert a linear power ratio to dB. Requires ratio > 0.
double linear_to_db(double ratio);

/// Convert battery capacity in watt-hours to joules.
double wh_to_joules(double wh);

/// Convert energy in joules to watt-hours.
double joules_to_wh(double joules);

/// Convert milliwatts to watts.
constexpr double mw_to_watts(double mw) { return mw * 1e-3; }

/// Convert microwatts to watts.
constexpr double uw_to_watts(double uw) { return uw * 1e-6; }

/// Convert watts to milliwatts.
constexpr double watts_to_mw(double w) { return w * 1e3; }

/// Convert watts to microwatts.
constexpr double watts_to_uw(double w) { return w * 1e6; }

/// Free-space wavelength [m] for a carrier frequency [Hz]. Requires > 0.
double wavelength_m(double freq_hz);

// ---------------------------------------------------------------------
// Strong physical-unit types.
// ---------------------------------------------------------------------

/// One double tagged with a dimension. Construction and extraction are
/// explicit; same-unit arithmetic and scalar scaling are allowed;
/// cross-unit arithmetic exists only where physics defines it (the free
/// operators below). The wrapper adds no storage, padding, or calls: the
/// static_asserts after the aliases pin layout compatibility with double.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  /// The "no value" sentinel (EnergyLedger's optional sim time).
  static constexpr Quantity nan() {
    return Quantity(std::numeric_limits<double>::quiet_NaN());
  }

  /// The raw SI magnitude. The only way out of the type system — keep it
  /// at the edge where the math happens, not in signatures.
  constexpr double value() const { return value_; }

  constexpr Quantity operator-() const { return Quantity(-value_); }
  constexpr Quantity operator+(Quantity other) const {
    return Quantity(value_ + other.value_);
  }
  constexpr Quantity operator-(Quantity other) const {
    return Quantity(value_ - other.value_);
  }
  constexpr Quantity operator*(double scale) const {
    return Quantity(value_ * scale);
  }
  constexpr Quantity operator/(double scale) const {
    return Quantity(value_ / scale);
  }
  /// Ratio of two like quantities is dimensionless.
  constexpr double operator/(Quantity other) const {
    return value_ / other.value_;
  }
  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) {
    value_ -= other.value_;
    return *this;
  }
  friend constexpr Quantity operator*(double scale, Quantity q) {
    return Quantity(scale * q.value_);
  }

  constexpr bool operator==(const Quantity&) const = default;
  constexpr std::partial_ordering operator<=>(const Quantity&) const =
      default;

 private:
  double value_ = 0.0;
};

namespace unit_tags {
struct JoulesTag {};
struct SecondsTag {};
struct WattsTag {};
struct DbmTag {};
struct HertzTag {};
struct WattHoursTag {};
}  // namespace unit_tags

using Joules = Quantity<unit_tags::JoulesTag>;
using Seconds = Quantity<unit_tags::SecondsTag>;
using Watts = Quantity<unit_tags::WattsTag>;
using Dbm = Quantity<unit_tags::DbmTag>;
using Hertz = Quantity<unit_tags::HertzTag>;
using WattHours = Quantity<unit_tags::WattHoursTag>;

// Zero-overhead: a Quantity is exactly one double, bit-for-bit.
static_assert(sizeof(Joules) == sizeof(double));
static_assert(alignof(Joules) == alignof(double));
static_assert(std::is_trivially_copyable_v<Joules>);
static_assert(std::is_standard_layout_v<Joules>);
static_assert(sizeof(Seconds) == sizeof(double) &&
              std::is_trivially_copyable_v<Seconds>);
static_assert(sizeof(Watts) == sizeof(double) &&
              std::is_trivially_copyable_v<Watts>);
static_assert(sizeof(Dbm) == sizeof(double) &&
              std::is_trivially_copyable_v<Dbm>);
static_assert(sizeof(Hertz) == sizeof(double) &&
              std::is_trivially_copyable_v<Hertz>);
static_assert(sizeof(WattHours) == sizeof(double) &&
              std::is_trivially_copyable_v<WattHours>);
// Units stay distinct types: a Joules can never bind a Seconds overload.
static_assert(!std::is_same_v<Joules, Seconds> &&
              !std::is_same_v<Watts, Dbm> &&
              !std::is_same_v<Joules, WattHours>);

// Dimensional relations: E = P * t and its rearrangements.
constexpr Joules operator*(Watts power, Seconds time) {
  return Joules(power.value() * time.value());
}
constexpr Joules operator*(Seconds time, Watts power) {
  return Joules(time.value() * power.value());
}
constexpr Watts operator/(Joules energy, Seconds time) {
  return Watts(energy.value() / time.value());
}
constexpr Seconds operator/(Joules energy, Watts power) {
  return Seconds(energy.value() / power.value());
}

// Checked conversions between quoted and SI forms. Bit-identical to the
// raw double helpers above (they are implemented on top of them), so
// migrating a call site from wh_to_joules(x) to
// to_joules(WattHours(x)).value() cannot shift any result.
Joules to_joules(WattHours energy);
WattHours to_watt_hours(Joules energy);
Watts to_watts(Dbm level);
/// Requires a strictly positive power (throws std::domain_error).
Dbm to_dbm(Watts power);

inline namespace unit_literals {
constexpr Joules operator""_J(long double v) {
  return Joules(static_cast<double>(v));
}
constexpr Joules operator""_J(unsigned long long v) {
  return Joules(static_cast<double>(v));
}
constexpr Seconds operator""_s(long double v) {
  return Seconds(static_cast<double>(v));
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds(static_cast<double>(v));
}
constexpr Watts operator""_W(long double v) {
  return Watts(static_cast<double>(v));
}
constexpr Watts operator""_W(unsigned long long v) {
  return Watts(static_cast<double>(v));
}
constexpr Dbm operator""_dBm(long double v) {
  return Dbm(static_cast<double>(v));
}
constexpr Dbm operator""_dBm(unsigned long long v) {
  return Dbm(static_cast<double>(v));
}
constexpr Hertz operator""_Hz(long double v) {
  return Hertz(static_cast<double>(v));
}
constexpr Hertz operator""_Hz(unsigned long long v) {
  return Hertz(static_cast<double>(v));
}
constexpr WattHours operator""_Wh(long double v) {
  return WattHours(static_cast<double>(v));
}
constexpr WattHours operator""_Wh(unsigned long long v) {
  return WattHours(static_cast<double>(v));
}
}  // namespace unit_literals

}  // namespace braidio::util
