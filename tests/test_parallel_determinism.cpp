// The parallel execution layer must be a pure scheduling concern: every
// artifact (simulated trace, analysis pipeline, k-means, bootstrap) has to
// be bit-identical no matter how many threads run it. These tests pin that
// contract at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/analysis/pipeline.h"
#include "src/sim/simulator.h"
#include "src/stats/bootstrap.h"
#include "src/stats/kmeans.h"
#include "src/stats/sparse_matrix.h"
#include "src/trace/fingerprint.h"
#include "src/util/thread_pool.h"

namespace fa {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Restores the global pool size after each test so the suite's other tests
// see the default configuration.
class ParallelDeterminism : public ::testing::Test {
 protected:
  void TearDown() override { ThreadPool::set_default_thread_count(0); }
};

// Every table, every column and the ticket text (trace::fingerprint); the
// row counts first, for a readable failure.
void expect_same_trace(const trace::TraceDatabase& a,
                       const trace::TraceDatabase& b) {
  ASSERT_EQ(a.servers().size(), b.servers().size());
  ASSERT_EQ(a.tickets().size(), b.tickets().size());
  EXPECT_EQ(trace::fingerprint(a), trace::fingerprint(b));
}

TEST_F(ParallelDeterminism, SimulateIdenticalAcrossThreadCounts) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  ThreadPool::set_default_thread_count(1);
  const auto reference = sim::simulate(config);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    const auto db = sim::simulate(config);
    expect_same_trace(reference, db);
  }
}

TEST_F(ParallelDeterminism, PipelineIdenticalAcrossThreadCounts) {
  const auto config = sim::SimulationConfig::paper_defaults().scaled(0.05);
  ThreadPool::set_default_thread_count(1);
  const auto db = sim::simulate(config);
  const analysis::AnalysisPipeline reference(db);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    const analysis::AnalysisPipeline pipeline(db);
    ASSERT_EQ(reference.failures().size(), pipeline.failures().size());
    ASSERT_EQ(reference.classification().predicted,
              pipeline.classification().predicted);
    ASSERT_EQ(reference.classification().clustering.inertia,
              pipeline.classification().clustering.inertia);
  }
}

TEST_F(ParallelDeterminism, KMeansIdenticalAcrossThreadCounts) {
  // More rows than one assignment chunk, so the chunk-parallel step splits.
  stats::SparseMatrix points(2);
  Rng data_rng(42);
  const std::vector<std::uint32_t> columns = {0, 1};
  for (int i = 0; i < 5000; ++i) {
    const std::vector<double> values = {data_rng.uniform(),
                                        data_rng.uniform() + (i % 3)};
    points.append_row(columns, values);
  }
  stats::KMeansOptions options;
  options.k = 3;
  options.restarts = 8;
  ThreadPool::set_default_thread_count(1);
  Rng r1(7);
  const auto reference = stats::kmeans(points, options, r1);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    Rng r2(7);
    const auto run = stats::kmeans(points, options, r2);
    ASSERT_EQ(reference.assignment, run.assignment);
    ASSERT_EQ(reference.inertia, run.inertia);
    ASSERT_EQ(reference.centroids, run.centroids);
  }
}

TEST_F(ParallelDeterminism, BootstrapIdenticalAcrossThreadCounts) {
  std::vector<double> xs;
  Rng data_rng(11);
  for (int i = 0; i < 500; ++i) xs.push_back(data_rng.uniform() * 10.0);
  const auto mean = [](std::span<const double> s) {
    double total = 0.0;
    for (double x : s) total += x;
    return total / static_cast<double>(s.size());
  };
  ThreadPool::set_default_thread_count(1);
  Rng r1(3);
  const auto reference = stats::bootstrap_ci(xs, mean, r1, 200);
  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_default_thread_count(threads);
    Rng r2(3);
    const auto run = stats::bootstrap_ci(xs, mean, r2, 200);
    ASSERT_EQ(reference.lo, run.lo);
    ASSERT_EQ(reference.hi, run.hi);
  }
}

}  // namespace
}  // namespace fa
