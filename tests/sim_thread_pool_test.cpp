// ThreadPool unit tests: zero-task, more-tasks-than-threads, exception
// propagation, stealing under skewed work, and env-based sizing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/thread_pool.hpp"

namespace braidio::sim {
namespace {

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  pool.run_tasks({});
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SizeCountsCallerAsParticipant) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, MoreTasksThanThreadsVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  const std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, FewerTasksThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(16, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("boom at 37");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   8, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RunTasksExecutesAll) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 1; i <= 10; ++i) {
    tasks.push_back([&sum, i] { sum.fetch_add(i); });
  }
  pool.run_tasks(tasks);
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, SkewedWorkCompletes) {
  // The first indices carry nearly all the work; stealing must rebalance
  // without losing or duplicating iterations.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(256, [&](std::size_t i) {
    std::uint64_t local = 0;
    const std::size_t reps = i < 8 ? 20'000 : 10;
    for (std::size_t r = 0; r < reps; ++r) local += r ^ i;
    sum.fetch_add(local % 1000 + 1);
  });
  EXPECT_GE(sum.load(), 256u);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("BRAIDIO_THREADS"), 0);
  const unsigned fallback = ThreadPool::default_thread_count();
  EXPECT_GE(fallback, 1u);
  // 2^32 + 1 does not fit in `unsigned`: the default, not 1 thread.
  ASSERT_EQ(setenv("BRAIDIO_THREADS", "4294967297", 1), 0);
  EXPECT_EQ(ThreadPool::default_thread_count(), fallback);
  ASSERT_EQ(unsetenv("BRAIDIO_THREADS"), 0);
}

}  // namespace
}  // namespace braidio::sim
