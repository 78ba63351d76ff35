// k-means (k-means++ seeding, Lloyd iterations) over a sparse document-term
// matrix.
//
// Section III-A of the paper classifies problem tickets by running k-means on
// the description and resolution text; this is the clustering engine behind
// fa::analysis::classify_tickets.
#pragma once

#include <cstdint>
#include <vector>

#include "src/stats/sparse_matrix.h"
#include "src/util/rng.h"

namespace fa::stats {

// Work accounting across all restarts of one kmeans() call. All fields are
// deterministic for a fixed input at any thread count: iteration counts and
// Hamerly-prune decisions depend only on per-point state, never on the
// schedule (see docs/PERF.md), so the fa.kmeans.* counters they feed are
// stable, continuously checkable figures rather than one-off measurements.
struct IterationStats {
  // Lloyd iterations each restart ran (index = restart index).
  std::vector<int> iterations_per_restart;
  // Point-to-centroid distance evaluations performed in the assignment
  // steps of every restart, and evaluations skipped by the Hamerly bound
  // test.
  std::uint64_t distances_computed = 0;
  std::uint64_t distances_pruned = 0;

  int total_iterations() const {
    int total = 0;
    for (int i : iterations_per_restart) total += i;
    return total;
  }
};

struct KMeansResult {
  std::vector<std::vector<double>> centroids;  // k x dim
  std::vector<int> assignment;                 // one entry per point
  double inertia = 0.0;                        // sum of squared distances
  int iterations = 0;                          // winning restart's iterations
  bool converged = false;
  // Aggregated over all restarts (not just the winner).
  IterationStats stats;
};

struct KMeansOptions {
  int k = 2;
  int max_iterations = 100;
  // Restarts with different seedings; the lowest-inertia run is returned
  // (ties broken by restart index, so the result is schedule-independent).
  int restarts = 4;
  double tolerance = 1e-7;  // relative inertia improvement to keep iterating
};

// points: n rows over cols() >= 1 columns. Requires n >= k. Centroids
// stay dense. Point-to-centroid distances use the
// ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 expansion over only the row's
// nonzeros, and the assignment step keeps Hamerly-style upper/lower bounds
// so points whose nearest centroid cannot have changed skip the full
// centroid scan. Restarts run in parallel; each restart's assignment step
// is a nested, chunk-parallel loop with chunk boundaries fixed by n alone
// and a serial in-order reduction, so the result is bit-identical at any
// thread count (see docs/PERF.md).
KMeansResult kmeans(const SparseMatrix& points, const KMeansOptions& options,
                    Rng& rng);

}  // namespace fa::stats
