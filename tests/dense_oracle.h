// Serial dense reference implementations of the ticket-text clustering
// path, for tests only: TF-IDF weights recounted from the corpus, CSR
// densification, and Lloyd k-means with k-means++ seeding over dense
// points. The library runs only the sparse path
// (Vectorizer::transform_all_sparse and the CSR stats::kmeans); these
// oracles pin that it computes the same thing.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/stats/kmeans.h"
#include "src/stats/simd.h"
#include "src/stats/sparse_matrix.h"
#include "src/text/features.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace fa::testing {

// Dense TF-IDF rows of `documents` over the vocabulary of `vectorizer`,
// which was fitted on `fit_corpus` with `options`. Document frequencies are
// recounted from `fit_corpus`; every weight is computed in the order a
// dense loop over the vocabulary visits it.
inline std::vector<std::vector<double>> dense_tfidf(
    std::span<const std::string> fit_corpus,
    const text::Vectorizer& vectorizer, const text::VectorizerOptions& options,
    std::span<const std::string> documents) {
  const std::vector<std::string>& vocabulary = vectorizer.vocabulary();
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < vocabulary.size(); ++i) {
    index.emplace(vocabulary[i], i);
  }
  std::vector<int> df(vocabulary.size(), 0);
  for (const std::string& doc : fit_corpus) {
    std::unordered_set<std::size_t> seen;
    for (const std::string& w : fa::tokenize_words(doc)) {
      const auto it = index.find(w);
      if (it != index.end() && seen.insert(it->second).second) {
        ++df[it->second];
      }
    }
  }
  const double n = static_cast<double>(fit_corpus.size());
  std::vector<double> idf(vocabulary.size(), 1.0);
  if (options.use_idf) {
    for (std::size_t i = 0; i < idf.size(); ++i) {
      idf[i] = std::log((1.0 + n) / (1.0 + df[i])) + 1.0;
    }
  }

  std::vector<std::vector<double>> rows;
  rows.reserve(documents.size());
  for (const std::string& doc : documents) {
    std::vector<double> vec(vocabulary.size(), 0.0);
    for (const std::string& w : fa::tokenize_words(doc)) {
      const auto it = index.find(w);
      if (it != index.end()) vec[it->second] += 1.0;
    }
    for (std::size_t i = 0; i < vec.size(); ++i) vec[i] *= idf[i];
    if (options.l2_normalize) {
      double norm = 0.0;
      for (double x : vec) norm += x * x;
      if (norm > 0.0) {
        norm = std::sqrt(norm);
        for (double& x : vec) x /= norm;
      }
    }
    rows.push_back(std::move(vec));
  }
  return rows;
}

// Every row of `m` as a dense vector of m.cols() entries.
inline std::vector<std::vector<double>> densify(const stats::SparseMatrix& m) {
  std::vector<std::vector<double>> rows;
  rows.reserve(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) rows.push_back(m.row_dense(i));
  return rows;
}

// Nonzero entries of dense rows, as a CSR matrix with `cols` columns.
inline stats::SparseMatrix sparsify(
    std::span<const std::vector<double>> rows, std::size_t cols) {
  stats::SparseMatrix m(cols);
  std::vector<std::uint32_t> indices;
  std::vector<double> values;
  for (const std::vector<double>& row : rows) {
    indices.clear();
    values.clear();
    for (std::size_t d = 0; d < row.size(); ++d) {
      if (row[d] == 0.0) continue;
      indices.push_back(static_cast<std::uint32_t>(d));
      values.push_back(row[d]);
    }
    m.append_row(indices, values);
  }
  return m;
}

namespace dense_kmeans_detail {

inline std::vector<std::vector<double>> seed_plus_plus(
    std::span<const std::vector<double>> points,
    const stats::KMeansOptions& options, Rng& rng) {
  const int k = options.k;
  std::vector<std::vector<double>> centroids;
  const auto n = static_cast<std::int64_t>(points.size());
  std::vector<double> d2(points.size(),
                         std::numeric_limits<double>::infinity());
  centroids.push_back(
      points[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  while (static_cast<int>(centroids.size()) < k) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      d2[i] = std::min(
          d2[i], stats::simd::squared_distance(points[i], centroids.back()));
    }
    double total = 0.0;
    for (double d : d2) total += d;
    if (total <= 0.0) {
      centroids.push_back(centroids.back());
      continue;
    }
    double r = rng.uniform() * total;
    std::size_t chosen = points.size() - 1;
    for (std::size_t i = 0; i < points.size(); ++i) {
      r -= d2[i];
      if (r < 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[chosen]);
  }
  return centroids;
}

inline stats::KMeansResult run_once(
    std::span<const std::vector<double>> points,
    const stats::KMeansOptions& options, Rng& rng) {
  const std::size_t dim = points.front().size();
  const auto k = static_cast<std::size_t>(options.k);
  stats::KMeansResult result;
  result.centroids = seed_plus_plus(points, options, rng);
  result.assignment.assign(points.size(), -1);
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    double inertia = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double d =
            stats::simd::squared_distance(points[i], result.centroids[c]);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      result.assignment[i] = best_c;
      inertia += best;
    }
    result.inertia = inertia;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<std::size_t>(result.assignment[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        result.centroids[c] = points[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(points.size()) - 1))];
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (iter > 1 && prev_inertia - inertia <=
                        options.tolerance * std::max(prev_inertia, 1e-300)) {
      result.converged = true;
      break;
    }
    prev_inertia = inertia;
  }
  return result;
}

}  // namespace dense_kmeans_detail

// Serial dense k-means with the library's restart protocol: restart r runs
// on rng.fork(r), all forks taken before any restart runs, and the lowest
// inertia wins (ties to the lowest restart index). Fills no work counters.
inline stats::KMeansResult dense_kmeans(
    std::span<const std::vector<double>> points,
    const stats::KMeansOptions& options, Rng& rng) {
  std::vector<Rng> restart_rngs;
  for (int r = 0; r < options.restarts; ++r) {
    restart_rngs.push_back(rng.fork(static_cast<std::uint64_t>(r)));
  }
  stats::KMeansResult best;
  for (std::size_t r = 0; r < restart_rngs.size(); ++r) {
    stats::KMeansResult run =
        dense_kmeans_detail::run_once(points, options, restart_rngs[r]);
    if (r == 0 || run.inertia < best.inertia) best = std::move(run);
  }
  return best;
}

}  // namespace fa::testing
