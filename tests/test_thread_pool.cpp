// ThreadPool scheduling: every index runs exactly once, exceptions reach the
// caller, and parallel_for calls nest — an item may run its own loop on the
// same pool, and idle workers go back to the outer loop once the inner one
// runs dry. The caller-task overload runs its task once, on the calling
// thread, alongside the items.
#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

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

constexpr std::size_t kPoolSizes[] = {1, 2, 4, 8};

TEST(CallerTask, RunsOnceOnTheCallingThread) {
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 2u, 1000u}) {
      int runs = 0;
      std::thread::id ran_on;
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(
          n, [&](std::size_t i) { hits[i].fetch_add(1); },
          [&] {
            ++runs;
            ran_on = std::this_thread::get_id();
          });
      EXPECT_EQ(runs, 1) << threads << " threads, n " << n;
      EXPECT_EQ(ran_on, std::this_thread::get_id())
          << threads << " threads, n " << n;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << ", " << threads << " threads, n " << n;
      }
    }
  }
}

TEST(CallerTask, EmptyLoopRunsTheTaskWithoutABatch) {
  const obs::Counter& batches = obs::counter("fa.pool.batches");
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    const std::uint64_t before = batches.value();
    int runs = 0;
    pool.parallel_for(0, [](std::size_t) {}, [&] { ++runs; });
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(batches.value(), before) << threads << " threads";
  }
}

TEST(CallerTask, EveryItemRunsWhenTheTaskThrows) {
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(500);
    EXPECT_THROW(pool.parallel_for(
                     hits.size(), [&](std::size_t i) { hits[i] += 1; },
                     [] { throw std::logic_error("task"); }),
                 std::logic_error)
        << threads << " threads";
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(CallerTask, TaskExceptionWinsOverItemExceptions) {
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(500);
    bool task_ran = false;
    try {
      pool.parallel_for(
          hits.size(),
          [&](std::size_t i) {
            hits[i] += 1;
            if (i % 7 == 3) throw std::runtime_error("item");
          },
          [&] {
            task_ran = true;
            throw std::logic_error("task");
          });
      FAIL() << "expected an exception at " << threads << " threads";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "task");
    } catch (const std::runtime_error&) {
      FAIL() << "an item exception beat the task's at " << threads
             << " threads";
    }
    EXPECT_TRUE(task_ran);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(CallerTask, ItemExceptionPropagatesAfterTheTaskCompletes) {
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(500);
    bool task_done = false;
    EXPECT_THROW(pool.parallel_for(
                     hits.size(),
                     [&](std::size_t i) {
                       hits[i] += 1;
                       if (i == 41) throw std::runtime_error("item");
                     },
                     [&] { task_done = true; }),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_TRUE(task_done) << threads << " threads";
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(CallerTask, NestedLoopInsideTheTaskCoversEveryIndex) {
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 9;
  constexpr std::size_t kNested = 3000;
  for (const std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> outer(kOuter * kInner);
    std::vector<std::atomic<int>> nested(kNested);
    pool.parallel_for(
        kOuter,
        [&](std::size_t i) {
          pool.parallel_for(kInner, [&](std::size_t j) {
            outer[i * kInner + j] += 1;
          });
        },
        [&] {
          pool.parallel_for(kNested, [&](std::size_t k) { nested[k] += 1; });
        });
    for (std::size_t k = 0; k < outer.size(); ++k) {
      ASSERT_EQ(outer[k].load(), 1) << "outer " << k << ", " << threads
                                    << " threads";
    }
    for (std::size_t k = 0; k < kNested; ++k) {
      ASSERT_EQ(nested[k].load(), 1) << "nested " << k << ", " << threads
                                     << " threads";
    }
  }
}

}  // namespace
}  // namespace fa
