#include "util/rng.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace braidio::util {

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
  const std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) return next();
  // Bitmask rejection: mask draws down to the smallest all-ones cover of
  // `span` and retry the few that land above it.
  std::uint64_t mask = span;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  std::uint64_t draw = next() & mask;
  while (draw > span) draw = next() & mask;
  return lo + draw;
}

double Rng::gaussian() {
  if (has_saved_gaussian_) {
    has_saved_gaussian_ = false;
    return saved_gaussian_;
  }
  // Marsaglia polar: a uniform point in the unit disc (rejecting the
  // origin) yields two independent normals. The first is returned, the
  // second kept for the next call.
  double x = 0.0, y = 0.0, r2 = 0.0;
  do {
    x = 2.0 * uniform() - 1.0;
    y = 2.0 * uniform() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  saved_gaussian_ = x * mult;
  has_saved_gaussian_ = true;
  return y * mult;
}

double Rng::exponential(double mean) {
  if (!(mean > 0.0)) throw std::domain_error("exponential: mean must be > 0");
  double u = 1.0 - uniform();
  return -mean * std::log(u);
}

std::uint64_t Rng::stream_seed(std::uint64_t seed, std::uint64_t index) {
  // Two finalizer rounds over (seed, index): the standard way to key
  // independent sub-streams off a master seed.
  return mix64(mix64(seed + kGolden) + kGolden * (index + 1));
}

Rng Rng::fork() {
  // Draw a fresh 64-bit seed; distinct enough for simulation purposes.
  const std::uint64_t seed = next() ^ 0xD1B54A32D192ED03ull;
  return Rng(seed);
}

}  // namespace braidio::util
