// One indexed parallel loop for embarrassingly-parallel parameter sweeps.
//
// This is the ONLY place in the tree allowed to spawn threads (enforced by
// tools/analyzer rule A13): every concurrent workload goes through
// `parallel_for` so the `BRAIDIO_SANITIZE=thread` build exercises one
// well-audited primitive.
//
// Design: `parallel_for(threads, n, body)` starts `min(threads, n) - 1`
// `std::jthread`s for this one loop. They and the calling thread claim
// chunks of [0, n) from one atomic cursor until it runs past n, and the
// helpers are joined before the call returns. Because the *result slot*
// of iteration i is addressed by i (not by arrival order), scheduling
// never affects output — determinism is the caller's job via per-index
// seeding (see `util::Rng::stream`).
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace braidio::sim {

/// A thread count from user text (`--threads`, `BRAIDIO_THREADS`): the
/// whole string must be decimal digits naming a value in [1, UINT_MAX].
/// Returns 0 (= "use the default") for anything else.
unsigned parse_thread_count(std::string_view text);

/// `BRAIDIO_THREADS` env var if `parse_thread_count` accepts it,
/// otherwise `std::thread::hardware_concurrency()` (min 1).
unsigned default_thread_count();

/// Run `body(i)` for every i in [0, n) on `threads` participants (the
/// caller included; `threads == 1` starts no thread) and return once all
/// of them are done. If any body throws, the first exception is rethrown
/// here: iterations already claimed finish, the rest are skipped.
void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace braidio::sim
