// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in Braidio takes an explicit Rng (or a seed) so
// that experiments are replayable bit-for-bit. Never use global RNG state.
//
// The generator is xoshiro256** (Blackman & Vigna, "Scrambled Linear
// Pseudorandom Number Generators", ACM TOMS 2021): 32 bytes of state,
// seeded with four SplitMix64 outputs of the 64-bit seed (the reference
// seeding, which never yields the all-zero state). The generator and
// every draw below are written here, none taken from the standard
// library's random header, so the stream is the same on every standard
// library: uniform() and uniform_int() are pure integer and IEEE
// arithmetic, and gaussian() adds only std::log and std::sqrt.
// A network simulator holds one Rng per node, so construction must stay
// a few nanoseconds and the object a few words (static_assert below).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/contract.hpp"

namespace braidio::util {

/// xoshiro256** with the distributions the simulators need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = kGolden) {
    for (std::uint64_t& word : s_) word = splitmix64(seed);
  }

  /// Uniform double in [0, 1): the top 53 bits of one draw.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    BRAIDIO_REQUIRE(lo <= hi, "lo", lo, "hi", hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive, by bitmask rejection
  /// sampling on the raw draws. Unbiased and fully specified (the
  /// standard leaves its integer distribution's algorithm to each
  /// library); util_rng_test pins the stream.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Standard normal (mean 0, stddev 1): Marsaglia's polar method, two
  /// uniform() draws per attempt, the second value of each accepted pair
  /// cached for the next call.
  double gaussian();

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

  /// Derive an independent child stream (for parallel components).
  Rng fork();

  /// Deterministic sub-stream `index` of master seed `seed` (stateless:
  /// does not consume from any generator). This is the seeding rule the
  /// sim engine uses for parallel sweeps — grid point i always receives
  /// `Rng::stream(seed, i)` regardless of which thread evaluates it, so
  /// parallel results are bit-identical to serial runs. The derivation is
  /// two rounds of the splitmix64 finalizer over seed and index, which
  /// decorrelates even adjacent indices.
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    return Rng(stream_seed(seed, index));
  }

  /// The raw 64-bit seed `stream()` would construct its generator from
  /// (for components that take a seed rather than an Rng).
  static std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index);

 private:
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

  /// The splitmix64 finalizer (Steele, Lea & Flood 2014): a bijective
  /// mixer whose outputs are statistically independent across
  /// consecutive inputs.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// One SplitMix64 step: advances `x` by the golden gamma and mixes it.
  static std::uint64_t splitmix64(std::uint64_t& x) {
    return mix64(x += kGolden);
  }

  /// One raw 64-bit xoshiro256** draw.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  std::uint64_t s_[4] = {};
  double saved_gaussian_ = 0.0;
  bool has_saved_gaussian_ = false;
};

static_assert(sizeof(Rng) <= 48, "one Rng per node: keep it a few words");

}  // namespace braidio::util
