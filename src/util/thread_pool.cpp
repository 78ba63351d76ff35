#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "src/obs/metrics.h"

namespace fa {

namespace {

// Per-worker metric handles, resolved once per (worker index, metric) —
// schedule-dependent values, so the whole family is timing-class.
struct WorkerMetrics {
  obs::Counter& items;
  obs::Counter& busy_us;
  obs::Counter& idle_us;

  explicit WorkerMetrics(std::size_t worker)
      : items(obs::counter("fa.pool.worker.items",
                           {{"worker", std::to_string(worker)}},
                           obs::Stability::kTiming)),
        busy_us(obs::counter("fa.pool.worker.busy_us",
                             {{"worker", std::to_string(worker)}},
                             obs::Stability::kTiming)),
        idle_us(obs::counter("fa.pool.worker.idle_us",
                             {{"worker", std::to_string(worker)}},
                             obs::Stability::kTiming)) {}
};

std::uint64_t us_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

// The metrics of the pool worker running on this thread; null on threads
// outside any pool, which report as worker 0.
thread_local WorkerMetrics* t_worker_metrics = nullptr;
// How many run_slice() calls are active on this thread. A nested slice runs
// inside an item whose time the outer slice already counts as busy.
thread_local int t_slice_depth = 0;

WorkerMetrics& this_thread_metrics() {
  static WorkerMetrics caller_metrics(0);
  return t_worker_metrics != nullptr ? *t_worker_metrics : caller_metrics;
}

}  // namespace

// One parallel_for invocation: an atomic work counter the caller and any
// idle workers drain together, plus completion bookkeeping. Held by
// shared_ptr so a worker that picked the batch just as it ran dry can still
// probe the (drained) counter safely.
struct ThreadPool::Batch {
  Batch(std::size_t count, const std::function<void(std::size_t)>& body)
      : n(count), fn(&body) {}

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex done_mutex;
  std::condition_variable all_done;
  std::exception_ptr error;
  std::mutex error_mutex;

  bool claimable() const {
    return next.load(std::memory_order_relaxed) < n;
  }

  // Claims and runs items until none are left, crediting the items (and,
  // at the outermost level, the busy time) to this thread's worker.
  void run_slice() {
    WorkerMetrics& metrics = this_thread_metrics();
    const bool outermost = t_slice_depth++ == 0;
    const auto start = std::chrono::steady_clock::now();
    std::size_t executed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      ++executed;
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(done_mutex);
        all_done.notify_all();
      }
    }
    --t_slice_depth;
    if (outermost) {
      metrics.busy_us.add(us_between(start, std::chrono::steady_clock::now()));
    }
    metrics.items.add(executed);
  }
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::thread::hardware_concurrency();
    if (thread_count == 0) thread_count = 1;
  }
  // The calling thread participates in every parallel_for, so a pool of
  // size N needs N-1 dedicated workers.
  if (thread_count > 1) threads_.reserve(thread_count - 1);
  for (std::size_t i = 0; i + 1 < thread_count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::claimable_batch() const {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if ((*it)->claimable()) return *it;
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t worker) {
  WorkerMetrics metrics(worker);
  t_worker_metrics = &metrics;
  for (;;) {
    std::shared_ptr<Batch> batch;
    const auto wait_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [&] {
        if (shutting_down_) return true;
        batch = claimable_batch();
        return batch != nullptr;
      });
      if (shutting_down_) return;
    }
    metrics.idle_us.add(
        us_between(wait_start, std::chrono::steady_clock::now()));
    batch->run_slice();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(n, fn, {});
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const std::function<void()>& caller_task) {
  if (n == 0) {
    if (caller_task) caller_task();
    return;
  }
  // Items keep running when the task throws; its error is rethrown last.
  std::exception_ptr caller_error;
  const auto run_caller_task = [&] {
    if (!caller_task) return;
    try {
      caller_task();
    } catch (...) {
      caller_error = std::current_exception();
    }
  };
  // Batch shape depends only on n, never on the schedule, so these stay in
  // the deterministic export.
  static obs::Counter& batches = obs::counter("fa.pool.batches");
  static obs::Counter& items = obs::counter("fa.pool.items");
  static obs::Histogram& batch_items = obs::histogram(
      "fa.pool.batch_items", obs::size_bounds(), {},
      obs::Stability::kDeterministic);
  batches.add(1);
  items.add(n);
  batch_items.record(static_cast<double>(n));
  auto batch = std::make_shared<Batch>(n, fn);
  if (threads_.empty() || (n == 1 && !caller_task)) {
    run_caller_task();
    batch->run_slice();  // inline: nothing to share
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(batch);
    }
    work_available_.notify_all();
    run_caller_task();
    batch->run_slice();
    // Every item is claimed now; retire the batch so idle workers stop
    // finding it, then wait for the items other threads still hold.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.erase(std::find(open_.begin(), open_.end(), batch));
    }
    std::unique_lock<std::mutex> lock(batch->done_mutex);
    batch->all_done.wait(lock, [&batch] {
      return batch->done.load(std::memory_order_acquire) >= batch->n;
    });
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (batch->error) std::rethrow_exception(batch->error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_requested_threads = 0;  // 0 = hardware concurrency

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_requested_threads);
  return *g_pool;
}

void ThreadPool::set_default_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (threads == g_requested_threads && g_pool) return;
  g_requested_threads = threads;
  g_pool.reset();  // lazily rebuilt at the new size on next use
}

std::size_t ThreadPool::default_thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return g_requested_threads;
}

std::size_t ThreadPool::hardware_threads() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  const std::function<void()>& caller_task) {
  ThreadPool::global().parallel_for(n, fn, caller_task);
}

}  // namespace fa
