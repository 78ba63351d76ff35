#include "src/stats/kmeans.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/sparse_matrix.h"
#include "src/util/error.h"
#include "src/util/thread_pool.h"
#include "tests/dense_oracle.h"

namespace fa::stats {
namespace {

// Dense test points as the CSR matrix the library clusters.
SparseMatrix sparse(const std::vector<std::vector<double>>& points) {
  return fa::testing::sparsify(points, points.front().size());
}

// Three well-separated 2-D blobs.
std::vector<std::vector<double>> blobs(Rng& rng, int per_cluster) {
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  std::vector<std::vector<double>> points;
  for (const auto& c : centers) {
    for (int i = 0; i < per_cluster; ++i) {
      points.push_back({c[0] + rng.normal(0.0, 0.5),
                        c[1] + rng.normal(0.0, 0.5)});
    }
  }
  return points;
}

TEST(KMeans, RecoversSeparatedClusters) {
  Rng rng(1);
  const auto points = blobs(rng, 50);
  KMeansOptions options;
  options.k = 3;
  const auto result = kmeans(sparse(points), options, rng);

  // Each ground-truth blob maps to exactly one cluster.
  std::set<int> first(result.assignment.begin(), result.assignment.begin() + 50);
  std::set<int> second(result.assignment.begin() + 50,
                       result.assignment.begin() + 100);
  std::set<int> third(result.assignment.begin() + 100,
                      result.assignment.end());
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(third.size(), 1u);
  EXPECT_NE(*first.begin(), *second.begin());
  EXPECT_NE(*second.begin(), *third.begin());
  EXPECT_TRUE(result.converged);
}

TEST(KMeans, AssignmentsInRangeAndComplete) {
  Rng rng(2);
  const auto points = blobs(rng, 20);
  KMeansOptions options;
  options.k = 4;
  const auto result = kmeans(sparse(points), options, rng);
  ASSERT_EQ(result.assignment.size(), points.size());
  for (int a : result.assignment) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, options.k);
  }
  EXPECT_EQ(result.centroids.size(), 4u);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  Rng rng(3);
  const auto points = blobs(rng, 40);
  KMeansOptions k2, k6;
  k2.k = 2;
  k6.k = 6;
  Rng r1(4), r2(4);
  const double inertia2 = kmeans(sparse(points), k2, r1).inertia;
  const double inertia6 = kmeans(sparse(points), k6, r2).inertia;
  EXPECT_LT(inertia6, inertia2);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  const std::vector<std::vector<double>> points = {
      {0.0}, {5.0}, {9.0}};
  KMeansOptions options;
  options.k = 3;
  Rng rng(5);
  const auto result = kmeans(sparse(points), options, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, HandlesDuplicatePoints) {
  // More clusters than distinct points: must not crash or loop forever.
  const std::vector<std::vector<double>> points = {
      {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  KMeansOptions options;
  options.k = 3;
  Rng rng(6);
  const auto result = kmeans(sparse(points), options, rng);
  ASSERT_EQ(result.assignment.size(), 4u);
  EXPECT_LE(result.inertia, 1e-9);
}

TEST(KMeans, RejectsBadArguments) {
  Rng rng(7);
  const std::vector<std::vector<double>> points = {{1.0}, {2.0}};
  KMeansOptions options;
  options.k = 3;  // more clusters than points
  EXPECT_THROW(kmeans(sparse(points), options, rng), Error);

  options.k = 0;
  EXPECT_THROW(kmeans(sparse(points), options, rng), Error);

  options.k = 1;
  options.restarts = 0;
  EXPECT_THROW(kmeans(sparse(points), options, rng), Error);

  // Zero columns: nothing to cluster on.
  options.restarts = 1;
  SparseMatrix no_columns(0);
  no_columns.append_row({}, {});
  no_columns.append_row({}, {});
  EXPECT_THROW(kmeans(no_columns, options, rng), Error);
}

TEST(KMeans, RestartsPickLowestInertia) {
  Rng rng(8);
  const auto points = blobs(rng, 30);
  KMeansOptions one, many;
  one.k = many.k = 3;
  one.restarts = 1;
  many.restarts = 10;
  Rng r1(9), r2(9);
  const double single = kmeans(sparse(points), one, r1).inertia;
  const double best = kmeans(sparse(points), many, r2).inertia;
  EXPECT_LE(best, single + 1e-9);
}

// Sparse restarts run in parallel, each with its chunked assignment step
// nested inside: more rows than one assignment chunk, more restarts than
// threads. Everything must be bit-identical at any thread count.
TEST(SparseKMeans, ParallelRestartsAreThreadCountInvariant) {
  Rng data_rng(41);
  SparseMatrix points(16);
  for (int i = 0; i < 5000; ++i) {
    const auto c = static_cast<std::uint32_t>(i % 5);
    const std::vector<std::uint32_t> idx = {3 * c, 3 * c + 1,
                                            15u - c % 2};
    const std::vector<double> val = {4.0 + data_rng.normal(0.0, 1.0),
                                     4.0 + data_rng.normal(0.0, 1.0),
                                     data_rng.uniform()};
    points.append_row(idx, val);
  }
  KMeansOptions options;
  options.k = 7;
  options.restarts = 6;
  const auto run_at = [&](std::size_t threads) {
    ThreadPool::set_default_thread_count(threads);
    Rng rng(5);
    return kmeans(points, options, rng);
  };
  const KMeansResult reference = run_at(1);
  for (const std::size_t threads : {2u, 8u}) {
    const KMeansResult run = run_at(threads);
    EXPECT_EQ(run.assignment, reference.assignment) << threads << " threads";
    EXPECT_EQ(run.inertia, reference.inertia) << threads << " threads";
    EXPECT_EQ(run.centroids, reference.centroids) << threads << " threads";
    EXPECT_EQ(run.iterations, reference.iterations);
    EXPECT_EQ(run.stats.iterations_per_restart,
              reference.stats.iterations_per_restart);
    EXPECT_EQ(run.stats.distances_computed,
              reference.stats.distances_computed);
    EXPECT_EQ(run.stats.distances_pruned, reference.stats.distances_pruned);
  }
  ThreadPool::set_default_thread_count(0);
}

}  // namespace
}  // namespace fa::stats
