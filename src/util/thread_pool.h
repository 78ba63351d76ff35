// Deterministic parallel execution primitives.
//
// A fixed-size worker pool plus a `parallel_for` helper used across the
// simulation, statistics and analysis layers. Parallelism here is purely a
// scheduling concern: every parallel call site derives the randomness of
// work item `i` from a counter-based seed (see `derive_seed` in rng.h) and
// writes item `i`'s output to a dedicated slot, so results are bit-identical
// regardless of the number of threads (including 1, which runs inline).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fa {

class ThreadPool {
 public:
  // `thread_count == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  // Runs fn(i) for i in [0, n). Blocks until all iterations complete; any
  // exception thrown by an iteration is rethrown on the calling thread
  // (first one wins). With no workers (thread_count 1) runs inline.
  //
  // Calls nest: fn may itself call parallel_for on the same pool. Every
  // call opens a batch that its caller drains alongside any idle workers.
  // An idle worker joins the newest open batch that still has unclaimed
  // items, so an inner loop gets help first; once that runs dry it falls
  // back to older (outer) batches. A caller never waits on anything but
  // the items of its own batch that other threads already hold, so nested
  // calls cannot deadlock.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  // As above, and runs caller_task() once on the calling thread while the
  // workers start on the items; the caller then helps drain them. Returns
  // when both are done. This overlaps serial work (e.g. committing one
  // block) with the parallel work (rendering the next), and keeps that
  // serial work on the calling thread, not on whichever worker is free.
  //
  // With n == 0 the task runs inline and no batch is counted; on a
  // 1-thread pool the task runs first, then the items inline. Every item
  // runs even if the task or another item throws; the task's exception is
  // rethrown first, otherwise the first item exception. The task may call
  // parallel_for itself. An empty task makes this the two-argument form.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn,
                    const std::function<void()>& caller_task);

  // The process-wide pool. Sized by set_default_thread_count() (or
  // hardware_concurrency) on first use; resized on subsequent changes.
  static ThreadPool& global();

  // Sets the size of the global pool: 0 = hardware concurrency, 1 = serial.
  // Safe to call repeatedly (e.g. from flag parsing); recreates the pool
  // when the size actually changes.
  static void set_default_thread_count(std::size_t threads);
  static std::size_t default_thread_count();

  // std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t hardware_threads();

 private:
  struct Batch;

  // `worker` is the 1-based dedicated-worker index (a calling thread from
  // outside the pool acts as worker 0); used to label per-worker metrics.
  void worker_loop(std::size_t worker);

  // The newest open batch with unclaimed items, or null. Needs mutex_.
  std::shared_ptr<Batch> claimable_batch() const;

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  // Open batches, oldest first. A call appends its batch and removes it
  // once every item is claimed; nested calls stack up here.
  std::vector<std::shared_ptr<Batch>> open_;
  bool shutting_down_ = false;
};

// Convenience wrappers over the global pool: deterministic parallel loops.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const std::function<void()>& caller_task);

}  // namespace fa
