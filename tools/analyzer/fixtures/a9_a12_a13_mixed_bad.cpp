// analyzer-path: bench/fixture_mixed.cpp
// Known-bad fixture: a raw engine, a spawned thread and an overlong line
// in one file. selftest.py also hands it to the CLI as an explicit path,
// which must exit 1 with A9, A12 and A13 and skip the whole-tree A11.
// expect: A9-no-global-rng
#include <random>
#include <thread>

int roll() {
  // expect: A9-no-global-rng
  std::mt19937 engine(42);
  return static_cast<int>(engine());
}

void spawn() {
  // expect: A13-no-stray-threads
  std::thread worker([] {});
  worker.join();
}

// expect: A12-line-hygiene
// This comment line is deliberately longer than eighty columns, so it trips A12.
