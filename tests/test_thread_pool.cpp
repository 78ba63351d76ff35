// ThreadPool scheduling: every index runs exactly once, exceptions reach the
// caller, and parallel_for calls nest — an item may run its own loop on the
// same pool, and idle workers go back to the outer loop once the inner one
// runs dry.
#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fa {
namespace {

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(NestedParallelFor, CoversEveryPairOnce) {
  constexpr std::size_t kOuter = 37;
  constexpr std::size_t kInner = 53;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.parallel_for(kOuter, [&](std::size_t i) {
      pool.parallel_for(kInner, [&](std::size_t j) {
        hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
      });
    });
    for (std::size_t k = 0; k < hits.size(); ++k) {
      ASSERT_EQ(hits[k].load(), 1) << "pair (" << k / kInner << ", "
                                   << k % kInner << ") at " << threads
                                   << " threads";
    }
  }
}

TEST(NestedParallelFor, InnerExceptionReachesOuterCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   pool.parallel_for(64, [&](std::size_t j) {
                                     if (i == 5 && j == 17) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
  // The pool is still usable after the failed nested call.
  std::vector<std::atomic<int>> hits(16 * 16);
  pool.parallel_for(16, [&](std::size_t i) {
    pool.parallel_for(16, [&](std::size_t j) { hits[i * 16 + j] += 1; });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

// Every outer item waits until all of them have started, which needs every
// thread of the pool on the outer loop at once. Item 0 first runs an inner
// loop; once it completes, workers must still find the outer loop.
TEST(NestedParallelFor, IdleWorkersReturnToTheOuterLoop) {
  constexpr std::size_t kThreads = 4;
  ThreadPool pool(kThreads);
  std::atomic<std::size_t> started{0};
  std::atomic<bool> all_met{true};
  pool.parallel_for(kThreads, [&](std::size_t i) {
    if (i == 0) {
      std::atomic<std::size_t> inner_items{0};
      pool.parallel_for(256, [&](std::size_t) { ++inner_items; });
      EXPECT_EQ(inner_items.load(), 256u);
    }
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kThreads) {
      if (std::chrono::steady_clock::now() > deadline) {
        all_met = false;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(all_met.load())
      << "only " << started.load() << " of " << kThreads
      << " outer items started: idle workers lost the outer loop";
}

}  // namespace
}  // namespace fa
