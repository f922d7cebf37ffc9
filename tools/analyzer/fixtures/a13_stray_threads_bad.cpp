// analyzer-path: src/core/fixture_stray_threads.cpp
// Known-bad fixture: model code spawning its own threads. Only the
// sweep engine in src/sim/ spawns threads, so the determinism pins and
// the TSan build cover one primitive.
#include <pthread.h>

#include <future>
#include <thread>

namespace braidio::core {

int fan_out() {
  // expect: A13-no-stray-threads
  std::jthread worker([] {});
  // expect: A13-no-stray-threads
  auto pending = std::async([] { return 1; });
  return pending.get();
}

void posix_fan_out(pthread_t* handle, void* (*body)(void*)) {
  // expect: A13-no-stray-threads
  pthread_create(handle, nullptr, body, nullptr);
}

// No finding: asking for the core count or the current thread's id
// spawns nothing.
unsigned cores() { return std::thread::hardware_concurrency(); }
std::thread::id self() { return std::this_thread::get_id(); }

}  // namespace braidio::core
