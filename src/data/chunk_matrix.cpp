#include "data/chunk_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ccf::data {
namespace {

double row_sum(std::span<const double> row) noexcept {
  double s = 0.0;
  for (const double v : row) s += v;
  return s;
}

double row_max(std::span<const double> row) noexcept {
  return *std::max_element(row.begin(), row.end());
}

}  // namespace

ChunkMatrix::ChunkMatrix(std::size_t partitions, std::size_t nodes)
    : partitions_(partitions), nodes_(nodes), data_(partitions * nodes, 0.0) {
  if (partitions == 0 || nodes == 0) {
    throw std::invalid_argument("ChunkMatrix: partitions and nodes must be >= 1");
  }
}

double ChunkMatrix::partition_total(std::size_t k) const noexcept {
  return row_sum(partition_row(k));
}

double ChunkMatrix::partition_max(std::size_t k) const noexcept {
  return row_max(partition_row(k));
}

std::size_t ChunkMatrix::partition_argmax(std::size_t k) const noexcept {
  const auto row = partition_row(k);
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
}

double ChunkMatrix::node_total(std::size_t i) const noexcept {
  double s = 0.0;
  for (std::size_t k = 0; k < partitions_; ++k) s += h(k, i);
  return s;
}

double ChunkMatrix::total() const noexcept { return row_sum(data_); }

double max_abs_diff(const ChunkMatrix& a, const ChunkMatrix& b) {
  if (a.partitions() != b.partitions() || a.nodes() != b.nodes()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double d = 0.0;
  for (std::size_t k = 0; k < a.partitions(); ++k) {
    for (std::size_t i = 0; i < a.nodes(); ++i) {
      d = std::max(d, std::fabs(a.h(k, i) - b.h(k, i)));
    }
  }
  return d;
}

ChunkView::ChunkView(const ChunkMatrix& base, std::size_t row,
                     std::vector<double> values)
    : base_(&base),
      row_(row),
      values_(std::make_shared<const std::vector<double>>(std::move(values))) {
  if (row >= base.partitions() || values_->size() != base.nodes()) {
    throw std::invalid_argument("ChunkView: replacement row out of shape");
  }
}

double ChunkView::partition_total(std::size_t k) const noexcept {
  return row_sum(partition_row(k));
}

double ChunkView::partition_max(std::size_t k) const noexcept {
  return row_max(partition_row(k));
}

double ChunkView::total() const noexcept {
  // Row-major, as ChunkMatrix::total sums its storage.
  double s = 0.0;
  for (std::size_t k = 0; k < partitions(); ++k) {
    for (const double v : partition_row(k)) s += v;
  }
  return s;
}

bool operator==(const ChunkView& a, const ChunkView& b) noexcept {
  if (a.partitions() != b.partitions() || a.nodes() != b.nodes()) return false;
  for (std::size_t k = 0; k < a.partitions(); ++k) {
    if (!std::ranges::equal(a.partition_row(k), b.partition_row(k))) {
      return false;
    }
  }
  return true;
}

}  // namespace ccf::data
