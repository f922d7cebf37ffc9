// analyzer-path: src/sim/fixture_pool_worker.cpp
// Clean fixture: src/sim/ is where the sweep engine lives, so it may
// spawn threads.
#include <thread>

namespace braidio::sim {

inline void fixture_worker() {
  std::jthread worker([] {});
}

}  // namespace braidio::sim
