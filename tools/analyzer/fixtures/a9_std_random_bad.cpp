// analyzer-path: src/util/rng.cpp
// Known-bad fixture: <random> inside util::Rng's own home. The standard
// leaves each distribution's algorithm to the library, so a stream drawn
// through one differs between libstdc++, libc++ and MSVC; util::Rng
// writes its generator and draws itself, and no file is exempt.
// expect: A9-no-global-rng
#include <random>

#include "util/rng.hpp"

namespace braidio::util {

double canonical(std::uint64_t seed) {
  // expect: A9-no-global-rng
  std::minstd_rand engine(static_cast<unsigned>(seed));
  // expect: A9-no-global-rng
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // expect: A9-no-global-rng
  std::normal_distribution<double> normal;
  // expect: A9-no-global-rng
  std::seed_seq seq{1, 2, 3};
  // expect: A9-no-global-rng
  return std::generate_canonical<double, 53>(engine) + unit(engine) +
         normal(engine);
}

// No finding: a word that merely ends in _distribution, outside std::,
// and the names in this string literal.
double energy_distribution(double x) { return x; }
const char* kWhy = "std::normal_distribution and std::ranlux48 vary";

}  // namespace braidio::util
