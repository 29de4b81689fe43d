#include "data/chunk_matrix.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

namespace ccf::data {
namespace {

ChunkMatrix sample() {
  // 2 partitions x 3 nodes.
  ChunkMatrix m(2, 3);
  m.set(0, 0, 3.0);
  m.set(0, 1, 0.0);
  m.set(0, 2, 1.0);
  m.set(1, 0, 3.0);
  m.set(1, 1, 6.0);
  m.set(1, 2, 0.0);
  return m;
}

TEST(ChunkMatrix, RejectsEmptyShapes) {
  EXPECT_THROW(ChunkMatrix(0, 3), std::invalid_argument);
  EXPECT_THROW(ChunkMatrix(3, 0), std::invalid_argument);
}

TEST(ChunkMatrix, AccessorsRoundTrip) {
  auto m = sample();
  EXPECT_DOUBLE_EQ(m.h(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.h(1, 1), 6.0);
  m.add(1, 1, 2.0);
  EXPECT_DOUBLE_EQ(m.h(1, 1), 8.0);
  EXPECT_EQ(m.partitions(), 2u);
  EXPECT_EQ(m.nodes(), 3u);
}

TEST(ChunkMatrix, PartitionAggregates) {
  const auto m = sample();
  EXPECT_DOUBLE_EQ(m.partition_total(0), 4.0);
  EXPECT_DOUBLE_EQ(m.partition_total(1), 9.0);
  EXPECT_DOUBLE_EQ(m.partition_max(0), 3.0);
  EXPECT_DOUBLE_EQ(m.partition_max(1), 6.0);
  EXPECT_EQ(m.partition_argmax(0), 0u);
  EXPECT_EQ(m.partition_argmax(1), 1u);
}

TEST(ChunkMatrix, ArgmaxTiesGoToLowestIndex) {
  ChunkMatrix m(1, 3);
  m.set(0, 0, 5.0);
  m.set(0, 1, 5.0);
  EXPECT_EQ(m.partition_argmax(0), 0u);
}

TEST(ChunkMatrix, NodeAndGrandTotals) {
  const auto m = sample();
  EXPECT_DOUBLE_EQ(m.node_total(0), 6.0);
  EXPECT_DOUBLE_EQ(m.node_total(1), 6.0);
  EXPECT_DOUBLE_EQ(m.node_total(2), 1.0);
  EXPECT_DOUBLE_EQ(m.total(), 13.0);
}

TEST(ChunkMatrix, PartitionRowIsContiguousView) {
  const auto m = sample();
  const auto row = m.partition_row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 6.0);
  EXPECT_DOUBLE_EQ(row[2], 0.0);
}

TEST(ChunkMatrix, EqualityAndDiff) {
  const auto a = sample();
  auto b = sample();
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
  b.add(0, 2, 0.5);
  EXPECT_NE(a, b);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
}

TEST(ChunkMatrix, DiffShapeMismatchThrows) {
  ChunkMatrix a(2, 3), b(3, 2);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
}

// A view must not outlive its matrix, so a temporary matrix is rejected.
static_assert(std::is_constructible_v<ChunkView, const ChunkMatrix&>);
static_assert(!std::is_constructible_v<ChunkView, ChunkMatrix>);
static_assert(!std::is_constructible_v<ChunkView, ChunkMatrix, std::size_t,
                                       std::vector<double>>);

TEST(ChunkView, PlainViewReadsTheMatrixInPlace) {
  const auto m = sample();
  const ChunkView v = m;
  EXPECT_EQ(v.partitions(), 2u);
  EXPECT_EQ(v.nodes(), 3u);
  EXPECT_EQ(v.partition_row(1).data(), m.partition_row(1).data());
  EXPECT_EQ(v, m);
  EXPECT_FALSE(ChunkView());
}

TEST(ChunkView, ReplacesOneRowOnly) {
  const auto m = sample();
  const ChunkView v(m, 1, {1.0, 2.0, 0.5});
  EXPECT_DOUBLE_EQ(v.h(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(v.partition_total(1), 3.5);
  EXPECT_DOUBLE_EQ(v.partition_max(1), 2.0);
  EXPECT_DOUBLE_EQ(v.total(), 4.0 + 3.5);
  EXPECT_EQ(v.partition_row(0).data(), m.partition_row(0).data());
  EXPECT_DOUBLE_EQ(m.h(1, 1), 6.0);  // the matrix itself is untouched
  EXPECT_NE(v, m);
  // Copies share the replacement row instead of copying it.
  const ChunkView copy = v;
  EXPECT_EQ(copy.partition_row(1).data(), v.partition_row(1).data());
  EXPECT_EQ(copy, v);
}

TEST(ChunkView, ReplacementOutOfShapeThrows) {
  const auto m = sample();
  EXPECT_THROW(ChunkView(m, 2, {0.0, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ChunkView(m, 0, {0.0, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace ccf::data
