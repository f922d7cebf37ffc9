// Machine-checked invariants at module boundaries.
//
// Braidio's numeric results are only trustworthy if the physical quantities
// flowing between modules stay physically meaningful: probabilities in
// [0, 1], energies non-negative, powers inside the representable dBm range,
// everything finite. The macros and checkers here make those rules
// executable. They are active in ALL build types (the cost is a branch per
// boundary crossing, negligible next to the numeric work) unless the build
// defines BRAIDIO_DISABLE_CONTRACTS (CMake: -DBRAIDIO_DISABLE_CONTRACTS=ON).
//
// A failed contract prints the expression, file:line, and the offending
// values to stderr, then aborts — so sanitizer runs, fuzzers, and CI catch
// physical nonsense exactly where it is introduced instead of pages later.
//
// Conventions:
//  * BRAIDIO_REQUIRE   — precondition on a public entry point's arguments.
//  * BRAIDIO_ENSURE    — postcondition on a value a function is returning.
//  * BRAIDIO_INVARIANT — internal consistency condition (loop/state).
//
// Documented, recoverable input errors (e.g. "throws std::invalid_argument
// when candidates is empty") keep throwing; contracts guard the conditions
// that would otherwise be silent nonsense or UB.
#pragma once

#include <cmath>
#include <sstream>
#include <string>

namespace braidio::util::contract {

/// Print "braidio contract violation: KIND(expr) failed at file:line: ..."
/// to stderr and abort. Never returns.
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& details);

namespace detail {
inline void format_pairs(std::ostringstream&) {}

template <typename Value, typename... Rest>
void format_pairs(std::ostringstream& os, const char* name, const Value& value,
                  const Rest&... rest) {
  os << ' ' << name << '=' << value;
  format_pairs(os, rest...);
}
}  // namespace detail

/// Small formatter for the offending values: alternating ("name", value)
/// pairs rendered as " name=value name=value".
template <typename... Pairs>
std::string detail_string(const Pairs&... pairs) {
  std::ostringstream os;
  os.precision(17);
  detail::format_pairs(os, pairs...);
  return os.str();
}

}  // namespace braidio::util::contract

#if defined(BRAIDIO_DISABLE_CONTRACTS)
#define BRAIDIO_CONTRACTS_ENABLED 0
#else
#define BRAIDIO_CONTRACTS_ENABLED 1
#endif

#if BRAIDIO_CONTRACTS_ENABLED
#define BRAIDIO_CONTRACT_CHECK_(kind, cond, ...)                  \
  do {                                                            \
    if (!(cond)) {                                                \
      ::braidio::util::contract::fail(                            \
          kind, #cond, __FILE__, __LINE__,                        \
          ::braidio::util::contract::detail_string(__VA_ARGS__)); \
    }                                                             \
  } while (false)
#else
#define BRAIDIO_CONTRACT_CHECK_(kind, cond, ...) \
  do {                                           \
  } while (false)
#endif

/// Precondition: arguments of a public entry point.
/// Usage: BRAIDIO_REQUIRE(step_s > 0.0, "step_s", step_s);
#define BRAIDIO_REQUIRE(cond, ...) \
  BRAIDIO_CONTRACT_CHECK_("REQUIRE", cond, __VA_ARGS__)

/// Postcondition: a value the function is about to hand back.
#define BRAIDIO_ENSURE(cond, ...) \
  BRAIDIO_CONTRACT_CHECK_("ENSURE", cond, __VA_ARGS__)

/// Internal consistency condition.
#define BRAIDIO_INVARIANT(cond, ...) \
  BRAIDIO_CONTRACT_CHECK_("INVARIANT", cond, __VA_ARGS__)

namespace braidio::util::contract {

/// `p` must be a finite probability in [0, 1]. Returns `p` so checks can be
/// threaded through return statements.
double check_probability(double p, const char* what);

namespace detail {
[[noreturn]] void fail_nonneg_energy_j(double joules, const char* what);
}  // namespace detail

/// `joules` must be finite and >= 0. Inline, as every battery drain
/// checks it: the check is one compare, the report stays out of line.
inline double check_nonneg_energy_j(double joules, const char* what) {
#if BRAIDIO_CONTRACTS_ENABLED
  if (!(std::isfinite(joules) && joules >= 0.0)) [[unlikely]] {
    detail::fail_nonneg_energy_j(joules, what);
  }
#else
  (void)what;
#endif
  return joules;
}

/// `dbm` must be finite and inside the physically plausible radio range
/// [lo_dbm, hi_dbm] (default -250..+90 dBm: below thermal noise in 1 Hz up
/// to megawatt-class transmitters — anything outside is a unit mix-up).
double check_power_dbm_range(double dbm, const char* what,
                             double lo_dbm = -250.0, double hi_dbm = 90.0);

}  // namespace braidio::util::contract
