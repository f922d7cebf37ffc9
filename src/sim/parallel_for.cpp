#include "sim/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/contract.hpp"

namespace braidio::sim {

unsigned parse_thread_count(std::string_view text) {
  unsigned count = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, count);
  return error == std::errc() && stop == end ? count : 0;
}

unsigned default_thread_count() {
  if (const char* env = std::getenv("BRAIDIO_THREADS")) {
    if (const unsigned count = parse_thread_count(env)) return count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  BRAIDIO_REQUIRE(threads >= 1 && static_cast<bool>(body), "threads",
                  threads, "n", n);
  if (n == 0) return;
  const std::size_t participants = std::min<std::size_t>(threads, n);
  // ~8 chunks per participant balances the tail against cursor traffic;
  // clamp to 1 for tiny loops.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (participants * 8));

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto participate = [&] {
    while (true) {
      const std::size_t lo = cursor.fetch_add(chunk);
      if (lo >= n) return;
      const std::size_t hi = std::min(n, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        // Keep the first exception and move the cursor past the end, so
        // every participant stops at its next claim.
        std::lock_guard lock(error_mu);
        if (!error) error = std::current_exception();
        cursor.store(n);
        return;
      }
    }
  };
  {
    // Declared after everything `participate` touches: if a spawn throws,
    // unwinding joins the helpers already started (they drain the cursor)
    // before the state they share goes away.
    std::vector<std::jthread> helpers;
    helpers.reserve(participants - 1);
    for (std::size_t t = 1; t < participants; ++t) {
      helpers.emplace_back(participate);
    }
    participate();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace braidio::sim
