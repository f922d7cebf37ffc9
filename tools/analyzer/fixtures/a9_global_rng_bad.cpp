// analyzer-path: tests/fixture_global_rng_test.cpp
// Known-bad fixture: unseeded or process-global randomness in a test.
// A run that draws from rand() or a raw engine cannot be replayed from
// its seed; util::Rng is the only generator.
#include <cstdlib>
// expect: A9-no-global-rng
#include <random>

#include "util/rng.hpp"

namespace braidio {

int roll_unseeded() {
  // expect: A9-no-global-rng
  return std::rand() % 6;
}

unsigned hardware_seed() {
  // expect: A9-no-global-rng
  std::random_device device;
  return device();
}

double raw_engines(unsigned seed) {
  // expect: A9-no-global-rng
  std::mt19937_64 engine(seed);
  // expect: A9-no-global-rng
  std::default_random_engine other(seed);
  return static_cast<double>(engine() + other());
}

// No finding: the names below sit in a string literal, and util::Rng
// is the sanctioned generator.
const char* kWhy = "std::mt19937 and rand() replay nothing";
double seeded(util::Rng& rng) { return rng.uniform(); }

}  // namespace braidio
