// Compressed sparse row (CSR) matrix with cached per-row squared L2 norms.
//
// Built for the ticket-classification hot path: a TF-IDF document-term
// matrix where each row touches ~10 of thousands of columns. Rows are
// appended once (strictly increasing column indices) and the matrix is
// immutable afterwards, so it is safe to share across threads. The cached
// row norms feed the ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 expansion used
// by k-means (see kmeans.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fa::stats {

class SparseMatrix {
 public:
  struct RowView {
    std::span<const std::uint32_t> indices;  // strictly increasing
    std::span<const double> values;          // parallel to indices
    std::size_t size() const { return indices.size(); }
  };

  explicit SparseMatrix(std::size_t cols) : cols_(cols) {}

  // Appends one row. `indices` must be strictly increasing, < cols(), and
  // parallel to `values`. Zero-length rows (empty documents) are fine.
  void append_row(std::span<const std::uint32_t> indices,
                  std::span<const double> values);

  std::size_t rows() const { return row_offsets_.size() - 1; }
  std::size_t cols() const { return cols_; }

  RowView row(std::size_t i) const;

  // Squared L2 norm of row i, computed once at append time.
  double row_norm_sq(std::size_t i) const { return norms_sq_[i]; }

  // Row i . y for a dense vector y of cols() entries.
  double dot_dense(std::size_t i, std::span<const double> y) const;

  // Densified copy of row i, for k-means seeding and reseeding; not for
  // hot loops.
  std::vector<double> row_dense(std::size_t i) const;

 private:
  std::size_t cols_;
  std::vector<std::uint32_t> col_indices_;
  std::vector<double> values_;
  std::vector<std::size_t> row_offsets_{0};
  std::vector<double> norms_sq_;
};

}  // namespace fa::stats
