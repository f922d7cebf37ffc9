#include "util/rng.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace braidio::util {

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
  const std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) return engine_();
  // Bitmask rejection: mask draws down to the smallest all-ones cover of
  // `span` and retry the few that land above it. Unbiased, and — unlike
  // std::uniform_int_distribution — fully specified, so the stream is
  // identical on every standard library.
  std::uint64_t mask = span;
  mask |= mask >> 1;
  mask |= mask >> 2;
  mask |= mask >> 4;
  mask |= mask >> 8;
  mask |= mask >> 16;
  mask |= mask >> 32;
  std::uint64_t draw = engine_() & mask;
  while (draw > span) draw = engine_() & mask;
  return lo + draw;
}

double Rng::exponential(double mean) {
  if (!(mean > 0.0)) throw std::domain_error("exponential: mean must be > 0");
  double u = 1.0 - uniform();
  return -mean * std::log(u);
}

double Rng::phase() { return uniform(0.0, 2.0 * std::numbers::pi); }

std::uint64_t Rng::stream_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer (Steele, Lea & Flood 2014): a bijective mixer
  // whose output is statistically independent across consecutive inputs —
  // the standard way to key independent sub-streams off (seed, index).
  auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const std::uint64_t golden = 0x9E3779B97F4A7C15ull;
  return mix(mix(seed + golden) + golden * (index + 1));
}

Rng Rng::fork() {
  // Draw a fresh 64-bit seed; distinct enough for simulation purposes.
  const std::uint64_t seed =
      engine_() ^ 0xD1B54A32D192ED03ull;
  return Rng(seed);
}

}  // namespace braidio::util
