// parallel_for unit tests: zero indices, more indices than threads,
// exception propagation, a skewed workload, and env-based sizing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel_for.hpp"

namespace braidio::sim {
namespace {

TEST(ParallelFor, ZeroTasksReturnsImmediately) {
  bool touched = false;
  parallel_for(4, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, MoreTasksThanThreadsVisitsEveryIndexOnce) {
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(3, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, FewerTasksThanThreads) {
  std::atomic<int> count{0};
  parallel_for(8, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  parallel_for(1, 16, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  EXPECT_THROW(parallel_for(4, 1000,
                            [&](std::size_t i) {
                              if (i == 37) {
                                throw std::runtime_error("boom at 37");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, RunsAgainAfterException) {
  EXPECT_THROW(
      parallel_for(4, 8, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  parallel_for(4, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, SkewedWorkCompletes) {
  // The first indices carry nearly all the work; the shared cursor must
  // rebalance without losing or duplicating iterations.
  std::atomic<std::uint64_t> sum{0};
  parallel_for(4, 256, [&](std::size_t i) {
    std::uint64_t local = 0;
    const std::size_t reps = i < 8 ? 20'000 : 10;
    for (std::size_t r = 0; r < reps; ++r) local += r ^ i;
    sum.fetch_add(local % 1000 + 1);
  });
  EXPECT_GE(sum.load(), 256u);
}

TEST(ParallelFor, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("BRAIDIO_THREADS"), 0);
  const unsigned fallback = default_thread_count();
  EXPECT_GE(fallback, 1u);
  // 2^32 + 1 does not fit in `unsigned`: the default, not 1 thread.
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "4294967297", 1), 0);
  EXPECT_EQ(default_thread_count(), fallback);
  ASSERT_EQ(unsetenv("BRAIDIO_THREADS"), 0);
}

}  // namespace
}  // namespace braidio::sim
