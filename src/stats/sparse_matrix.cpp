#include "src/stats/sparse_matrix.h"

#include "src/stats/simd.h"
#include "src/util/error.h"

namespace fa::stats {

void SparseMatrix::append_row(std::span<const std::uint32_t> indices,
                              std::span<const double> values) {
  require(indices.size() == values.size(),
          "SparseMatrix::append_row: indices/values size mismatch");
  for (std::size_t e = 0; e < indices.size(); ++e) {
    require(indices[e] < cols_,
            "SparseMatrix::append_row: column index out of range");
    require(e == 0 || indices[e] > indices[e - 1],
            "SparseMatrix::append_row: indices must be strictly increasing");
  }
  col_indices_.insert(col_indices_.end(), indices.begin(), indices.end());
  values_.insert(values_.end(), values.begin(), values.end());
  row_offsets_.push_back(col_indices_.size());
  norms_sq_.push_back(simd::sum_sq(values));
}

SparseMatrix::RowView SparseMatrix::row(std::size_t i) const {
  const std::size_t begin = row_offsets_[i];
  const std::size_t count = row_offsets_[i + 1] - begin;
  return {std::span(col_indices_).subspan(begin, count),
          std::span(values_).subspan(begin, count)};
}

double SparseMatrix::dot_dense(std::size_t i, std::span<const double> y) const {
  const std::size_t begin = row_offsets_[i];
  return simd::sparse_dot(values_.data() + begin, col_indices_.data() + begin,
                          row_offsets_[i + 1] - begin, y.data());
}

std::vector<double> SparseMatrix::row_dense(std::size_t i) const {
  std::vector<double> out(cols_, 0.0);
  for (std::size_t e = row_offsets_[i]; e < row_offsets_[i + 1]; ++e) {
    out[col_indices_[e]] = values_[e];
  }
  return out;
}

}  // namespace fa::stats
