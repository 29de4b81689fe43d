// The h_{ik} chunk-size matrix — the central data structure of the paper's
// optimization model (Table I): h_{ik} is the size in bytes of the data chunk
// of partition k resident on node i. Everything the placement schedulers need
// is derived from this matrix.
//
// Storage is row-major by partition (p rows, n columns) because the
// schedulers iterate "for each partition, over all nodes".
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

namespace ccf::data {

/// Dense p x n matrix of chunk sizes in bytes (double: the analytic generator
/// produces fractional expectations; tuple-level builders produce integers).
class ChunkMatrix {
 public:
  ChunkMatrix(std::size_t partitions, std::size_t nodes);

  std::size_t partitions() const noexcept { return partitions_; }
  std::size_t nodes() const noexcept { return nodes_; }

  /// Chunk size of partition k on node i.
  double h(std::size_t k, std::size_t i) const noexcept {
    return data_[k * nodes_ + i];
  }
  void set(std::size_t k, std::size_t i, double bytes) noexcept {
    data_[k * nodes_ + i] = bytes;
  }
  void add(std::size_t k, std::size_t i, double bytes) noexcept {
    data_[k * nodes_ + i] += bytes;
  }

  /// All chunk sizes of partition k (one per node), contiguous.
  std::span<const double> partition_row(std::size_t k) const noexcept {
    return {data_.data() + k * nodes_, nodes_};
  }

  /// Total bytes of partition k across all nodes (S_k in the paper's terms).
  double partition_total(std::size_t k) const noexcept;
  /// Largest chunk of partition k: max_i h_{ik}.
  double partition_max(std::size_t k) const noexcept;
  /// Node holding the largest chunk of partition k (ties: lowest index).
  std::size_t partition_argmax(std::size_t k) const noexcept;

  /// Total bytes resident on node i across all partitions.
  double node_total(std::size_t i) const noexcept;
  /// Grand total of all bytes.
  double total() const noexcept;

  friend bool operator==(const ChunkMatrix&, const ChunkMatrix&) = default;

 private:
  std::size_t partitions_;
  std::size_t nodes_;
  std::vector<double> data_;
};

/// Max absolute elementwise difference between two same-shape matrices
/// (used by tests comparing tuple-level and analytic builds).
double max_abs_diff(const ChunkMatrix& a, const ChunkMatrix& b);

/// Read-only rows of a ChunkMatrix, optionally with one partition's row
/// replaced. This is how the placement layer reads h_{ik}: a plain matrix,
/// or partial duplication's residual (core/skew_handling), which differs from
/// the workload's matrix in the hot partition's row only and so is this view
/// plus that one row instead of a p x n copy.
///
/// The view does not own the matrix; keep the matrix alive while the view is
/// in use. A view of a temporary matrix does not compile. The replacement
/// row is shared between copies, so copying a view is cheap.
class ChunkView {
 public:
  /// A view of nothing (AssignmentProblem::validate rejects it).
  ChunkView() = default;
  /// All rows of `base`. Implicit, like the pointer form, so a ChunkMatrix
  /// is accepted wherever rows are read.
  ChunkView(const ChunkMatrix& base) noexcept : base_(&base) {}
  ChunkView(const ChunkMatrix* base) noexcept : base_(base) {}
  ChunkView(const ChunkMatrix&&) = delete;
  /// `base` with partition `row`'s chunks replaced by `values`, which must
  /// hold one entry per node. Throws std::invalid_argument otherwise.
  ChunkView(const ChunkMatrix& base, std::size_t row,
            std::vector<double> values);
  ChunkView(const ChunkMatrix&&, std::size_t, std::vector<double>) = delete;

  /// False for a view of nothing.
  explicit operator bool() const noexcept { return base_ != nullptr; }

  std::size_t partitions() const noexcept { return base_->partitions(); }
  std::size_t nodes() const noexcept { return base_->nodes(); }

  /// All chunk sizes of partition k (one per node), contiguous.
  std::span<const double> partition_row(std::size_t k) const noexcept {
    return k == row_ ? std::span<const double>(*values_)
                     : base_->partition_row(k);
  }
  double h(std::size_t k, std::size_t i) const noexcept {
    return partition_row(k)[i];
  }

  /// The aggregates of ChunkMatrix, over the viewed rows.
  double partition_total(std::size_t k) const noexcept;
  double partition_max(std::size_t k) const noexcept;
  double total() const noexcept;

  /// Same shape and the same value in every entry.
  friend bool operator==(const ChunkView& a, const ChunkView& b) noexcept;

 private:
  static constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

  const ChunkMatrix* base_ = nullptr;
  std::size_t row_ = kNoRow;
  std::shared_ptr<const std::vector<double>> values_;
};

}  // namespace ccf::data
