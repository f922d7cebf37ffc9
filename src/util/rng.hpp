// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in Braidio takes an explicit Rng (or a seed) so
// that experiments are replayable bit-for-bit. Never use global RNG state.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>

#include "util/contract.hpp"

namespace braidio::util {

/// Thin wrapper over mt19937_64 with the distributions the simulators need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  ///
  /// Implemented with bitmask rejection sampling directly on the engine
  /// rather than std::uniform_int_distribution: the standard leaves that
  /// distribution's algorithm implementation-defined (streams differ across
  /// libstdc++/libc++/MSVC, and a fresh distribution object was constructed
  /// per call). This version is portable bit-for-bit and allocation-free;
  /// the deterministic stream is pinned by util_rng_test.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Standard normal (mean 0, stddev 1).
  double gaussian() { return normal_(engine_); }

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    BRAIDIO_REQUIRE(!std::isnan(p), "p", p);
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential with given mean (> 0).
  double exponential(double mean);

  /// Random phase in [0, 2*pi).
  double phase();

  /// Derive an independent child stream (for parallel components).
  Rng fork();

  /// Deterministic sub-stream `index` of master seed `seed` (stateless:
  /// does not consume from any engine). This is the seeding rule the sim
  /// engine uses for parallel sweeps — grid point i always receives
  /// `Rng::stream(seed, i)` regardless of which thread evaluates it, so
  /// parallel results are bit-identical to serial runs. The derivation is
  /// two rounds of the splitmix64 finalizer over seed and index, which
  /// decorrelates even adjacent indices.
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    return Rng(stream_seed(seed, index));
  }

  /// The raw 64-bit seed `stream()` would construct its engine from (for
  /// components that take a seed rather than an Rng).
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace braidio::util
