// Work-stealing thread pool for embarrassingly-parallel parameter sweeps.
//
// This is the ONLY place in the tree allowed to spawn threads (enforced by
// tools/analyzer rule A13): every concurrent workload goes through the pool
// so the `BRAIDIO_SANITIZE=thread` build exercises one well-audited
// primitive.
//
// Design: `parallel_for(n, body)` splits the index space [0, n) into one
// contiguous range per participant (the calling thread plus `size() - 1`
// workers). Each participant drains its own range front-to-back in small
// chunks; when it runs dry it steals the back half of the largest remaining
// victim range. Because the *result slot* of iteration i is addressed by i
// (not by arrival order), scheduling never affects output — determinism is
// the caller's job via per-index seeding (see `util::Rng::stream`).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace braidio::sim {

/// A thread count from user text (`--threads`, `BRAIDIO_THREADS`): the
/// whole string must be decimal digits naming a value in [1, UINT_MAX].
/// Returns 0 (= "use the default") for anything else.
unsigned parse_thread_count(std::string_view text);

/// Fixed-size pool of `std::jthread`s executing indexed parallel loops.
/// A pool of size T runs loop bodies on the caller plus T-1 workers; a pool
/// of size 1 runs everything inline on the caller (no threads spawned).
class ThreadPool {
 public:
  /// `threads` = total participants (callers + workers). 0 means
  /// `default_thread_count()`.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (1 = serial execution on the caller).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run `body(i)` for every i in [0, n); blocks until all iterations
  /// finish. If any body throws, the first exception is rethrown here after
  /// the loop drains (remaining iterations may be skipped). Not reentrant:
  /// do not call parallel_for from inside a body.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Run a batch of independent tasks (convenience over parallel_for).
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  /// `BRAIDIO_THREADS` env var if `parse_thread_count` accepts it,
  /// otherwise `std::thread::hardware_concurrency()` (min 1).
  static unsigned default_thread_count();

 private:
  // One participant's slice of the iteration space. Guarded by `mu` so a
  // thief and the owner can race safely; chunked so the lock is taken once
  // per chunk, not once per index.
  struct Range {
    std::mutex mu;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::stop_token stop, unsigned self);
  void participate(unsigned self);
  bool next_chunk(unsigned self, std::size_t& lo, std::size_t& hi);
  void record_error();

  std::vector<std::unique_ptr<Range>> ranges_;
  std::vector<std::jthread> workers_;

  // Job handoff state (guarded by job_mu_).
  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned workers_done_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t chunk_ = 1;
  std::exception_ptr error_;

  // Serializes parallel_for calls (the pool runs one loop at a time).
  std::mutex run_mu_;
};

}  // namespace braidio::sim
