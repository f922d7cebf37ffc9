#include "util/contract.hpp"

#include <cstdio>
#include <cstdlib>

namespace braidio::util::contract {

void fail(const char* kind, const char* expr, const char* file, int line,
          const std::string& details) {
  // fprintf (not the logger): a contract failure must reach stderr even if
  // the logger level is Off or the stream machinery is the broken part.
  std::fprintf(stderr,
               "braidio contract violation: %s(%s) failed at %s:%d:%s\n", kind,
               expr, file, line,
               details.empty() ? " (no details)" : details.c_str());
  std::fflush(stderr);
  std::abort();
}

double check_probability(double p, const char* what) {
  BRAIDIO_REQUIRE(std::isfinite(p) && 0.0 <= p && p <= 1.0, "probability",
                  what, "value", p);
  return p;
}

void detail::fail_nonneg_energy_j(double joules, const char* what) {
  fail("REQUIRE", "std::isfinite(joules) && joules >= 0.0", __FILE__,
       __LINE__, detail_string("energy_j", what, "value", joules));
}

double check_power_dbm_range(double dbm, const char* what, double lo_dbm,
                             double hi_dbm) {
  BRAIDIO_REQUIRE(std::isfinite(dbm) && lo_dbm <= dbm && dbm <= hi_dbm,
                  "power_dbm", what, "value", dbm, "lo", lo_dbm, "hi", hi_dbm);
  return dbm;
}

double check_finite(double x, const char* what) {
  BRAIDIO_REQUIRE(std::isfinite(x), "finite", what, "value", x);
  return x;
}

}  // namespace braidio::util::contract
