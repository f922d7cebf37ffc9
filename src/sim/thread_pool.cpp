#include "sim/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "util/contract.hpp"

namespace braidio::sim {

unsigned parse_thread_count(std::string_view text) {
  unsigned count = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, count);
  return error == std::errc() && stop == end ? count : 0;
}

unsigned ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("BRAIDIO_THREADS")) {
    if (const unsigned count = parse_thread_count(env)) return count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = threads == 0 ? default_thread_count() : threads;
  ranges_.reserve(total);
  for (unsigned i = 0; i < total; ++i) {
    ranges_.push_back(std::make_unique<Range>());
  }
  workers_.reserve(total - 1);
  for (unsigned i = 1; i < total; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token stop) { worker_loop(stop, i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Stop flags must flip under job_mu_: a worker between its predicate
    // check and the atomic unlock-and-block would otherwise miss the
    // notification forever.
    std::lock_guard lock(job_mu_);
    for (auto& w : workers_) w.request_stop();
  }
  job_cv_.notify_all();
  // Join here, while job_mu_ / job_cv_ / done_cv_ are still alive.
  // Members destruct in reverse declaration order, so leaving the join to
  // the jthread member's destructor would tear down the condition
  // variables first, under the workers' feet.
  workers_.clear();
}

void ThreadPool::worker_loop(std::stop_token stop, unsigned self) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock lock(job_mu_);
      job_cv_.wait(lock, [&] {
        return generation_ != seen || stop.stop_requested();
      });
      if (stop.stop_requested()) return;
      seen = generation_;
    }
    participate(self);
    {
      std::lock_guard lock(job_mu_);
      ++workers_done_;
    }
    done_cv_.notify_one();
  }
}

bool ThreadPool::next_chunk(unsigned self, std::size_t& lo, std::size_t& hi) {
  // Own range first: pop a chunk from the front.
  {
    Range& own = *ranges_[self];
    std::lock_guard lock(own.mu);
    if (own.begin < own.end) {
      lo = own.begin;
      hi = std::min(own.end, own.begin + chunk_);
      own.begin = hi;
      return true;
    }
  }
  // Steal: take the back half of the largest remaining victim range. The
  // victim keeps draining its front, so front/back never collide while the
  // lock partitions the range.
  while (true) {
    std::size_t best = ranges_.size();
    std::size_t best_left = 0;
    for (std::size_t v = 0; v < ranges_.size(); ++v) {
      if (v == self) continue;
      Range& r = *ranges_[v];
      std::lock_guard lock(r.mu);
      const std::size_t left = r.end - r.begin;
      if (left > best_left) {
        best_left = left;
        best = v;
      }
    }
    if (best == ranges_.size()) return false;  // everything drained
    Range& victim = *ranges_[best];
    std::lock_guard lock(victim.mu);
    const std::size_t left = victim.end - victim.begin;
    if (left == 0) continue;  // lost the race; rescan
    const std::size_t take = std::max<std::size_t>(1, left / 2);
    lo = victim.end - take;
    hi = victim.end;
    victim.end = lo;
    return true;
  }
}

void ThreadPool::record_error() {
  std::lock_guard lock(job_mu_);
  if (!error_) error_ = std::current_exception();
  // Cancel outstanding work: drain every range so participants stop early.
  for (auto& r : ranges_) {
    std::lock_guard range_lock(r->mu);
    r->begin = r->end;
  }
}

void ThreadPool::participate(unsigned self) {
  std::size_t lo = 0, hi = 0;
  while (next_chunk(self, lo, hi)) {
    try {
      for (std::size_t i = lo; i < hi; ++i) (*body_)(i);
    } catch (...) {
      record_error();
      return;
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  BRAIDIO_REQUIRE(static_cast<bool>(body), "n", n);
  if (n == 0) return;
  std::lock_guard serialize(run_mu_);

  const std::size_t parts = ranges_.size();
  {
    std::lock_guard lock(job_mu_);
    body_ = &body;
    error_ = nullptr;
    workers_done_ = 0;
    // ~8 chunks per participant balances stealing granularity against
    // lock traffic; clamp to 1 for tiny loops.
    chunk_ = std::max<std::size_t>(1, n / (parts * 8));
    // Contiguous static partition; stealing rebalances dynamically.
    const std::size_t base = n / parts;
    const std::size_t extra = n % parts;
    std::size_t at = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t len = base + (p < extra ? 1 : 0);
      std::lock_guard range_lock(ranges_[p]->mu);
      ranges_[p]->begin = at;
      ranges_[p]->end = at + len;
      at += len;
    }
    BRAIDIO_INVARIANT(at == n, "at", at, "n", n);
    ++generation_;
  }
  job_cv_.notify_all();

  participate(0);

  std::unique_lock lock(job_mu_);
  done_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::run_tasks(const std::vector<std::function<void()>>& tasks) {
  parallel_for(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

}  // namespace braidio::sim
