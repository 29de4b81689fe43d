#include "core/skew_handling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "data/workload.hpp"

namespace ccf::core {
namespace {

data::Workload skewed_workload() {
  data::WorkloadSpec spec;
  spec.nodes = 6;
  spec.partitions = 60;
  spec.customer_bytes = 6e6;
  spec.orders_bytes = 60e6;
  spec.skew = 0.25;
  spec.seed = 3;
  return data::generate_workload(spec);
}

TEST(ApplyPartialDuplication, DisabledIsPassThrough) {
  const auto w = skewed_workload();
  const PreparedInput out = apply_partial_duplication(w, false);
  EXPECT_FALSE(out.skew_handled);
  EXPECT_EQ(out.residual, w.matrix);
  EXPECT_DOUBLE_EQ(out.initial_flows.traffic(), 0.0);
  EXPECT_DOUBLE_EQ(out.pinned_local_bytes, 0.0);
}

TEST(ApplyPartialDuplication, NoSkewIsPassThroughEvenWhenEnabled) {
  auto spec = skewed_workload().spec;
  spec.skew = 0.0;
  const auto w = data::generate_workload(spec);
  const PreparedInput out = apply_partial_duplication(w, true);
  EXPECT_FALSE(out.skew_handled);
  EXPECT_EQ(out.residual, w.matrix);
}

TEST(ApplyPartialDuplication, PinsTheSkewedMass) {
  const auto w = skewed_workload();
  const PreparedInput out = apply_partial_duplication(w, true);
  EXPECT_TRUE(out.skew_handled);
  EXPECT_NEAR(out.pinned_local_bytes, w.skew.skewed_bytes_total(), 1.0);
  // Residual conservation: original = residual + pinned + broadcast-removed.
  EXPECT_NEAR(w.matrix.total(),
              out.residual.total() + out.pinned_local_bytes +
                  w.skew.broadcast_bytes,
              1.0);
}

TEST(ApplyPartialDuplication, HotPartitionShrinksOnly) {
  const auto w = skewed_workload();
  const PreparedInput out = apply_partial_duplication(w, true);
  const std::size_t hot = w.skew.hot_partition;
  for (std::size_t k = 0; k < w.matrix.partitions(); ++k) {
    for (std::size_t i = 0; i < w.matrix.nodes(); ++i) {
      if (k == hot) {
        EXPECT_LE(out.residual.h(k, i), w.matrix.h(k, i) + 1e-9);
        EXPECT_GE(out.residual.h(k, i), -1e-9);  // never negative
      } else {
        EXPECT_DOUBLE_EQ(out.residual.h(k, i), w.matrix.h(k, i));
      }
    }
  }
}

TEST(ApplyPartialDuplication, BroadcastFlowsFanOutFromSource) {
  const auto w = skewed_workload();
  const PreparedInput out = apply_partial_duplication(w, true);
  const std::size_t src = w.skew.broadcast_source;
  const std::size_t n = w.matrix.nodes();
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (dst == src) continue;
    EXPECT_DOUBLE_EQ(out.initial_flows.volume(src, dst),
                     w.skew.broadcast_bytes);
  }
  EXPECT_DOUBLE_EQ(out.initial_flows.traffic(),
                   w.skew.broadcast_bytes * static_cast<double>(n - 1));
  // Initial load vectors agree with the flow matrix.
  EXPECT_DOUBLE_EQ(out.initial_egress[src],
                   w.skew.broadcast_bytes * static_cast<double>(n - 1));
  for (std::size_t dst = 0; dst < n; ++dst) {
    if (dst == src) continue;
    EXPECT_DOUBLE_EQ(out.initial_ingress[dst], w.skew.broadcast_bytes);
  }
}

TEST(ApplyPartialDuplication, ProblemViewCarriesInitialLoads) {
  const auto w = skewed_workload();
  const PreparedInput out = apply_partial_duplication(w, true);
  const opt::AssignmentProblem p = out.problem();
  // The problem reads the residual's own rows, the rewritten one included.
  for (const std::size_t k : {std::size_t{0}, w.skew.hot_partition}) {
    EXPECT_EQ(p.matrix.partition_row(k).data(),
              out.residual.partition_row(k).data());
  }
  EXPECT_EQ(p.initial_egress, out.initial_egress);
  EXPECT_EQ(p.initial_ingress, out.initial_ingress);
  p.validate();  // must not throw
}

/// The residual as a full copy of the workload's matrix with the hot row
/// rewritten: what partial duplication computes, materialized.
data::ChunkMatrix materialized_residual(const data::Workload& w, bool enable) {
  data::ChunkMatrix r = w.matrix;
  if (!enable || !w.skew.present) return r;
  const std::size_t hot = w.skew.hot_partition;
  for (std::size_t i = 0; i < r.nodes(); ++i) {
    r.add(hot, i, -std::min(w.skew.skewed_bytes_per_node[i], r.h(hot, i)));
  }
  const std::size_t src = w.skew.broadcast_source;
  if (w.skew.broadcast_bytes > 0.0) {
    r.add(hot, src, -std::min(w.skew.broadcast_bytes, r.h(hot, src)));
  }
  return r;
}

TEST(ApplyPartialDuplication, ResidualEqualsMaterializedCopy) {
  for (const double skew : {0.0, 0.25}) {
    auto spec = skewed_workload().spec;
    spec.skew = skew;
    const auto w = data::generate_workload(spec);
    for (const bool enable : {false, true}) {
      const PreparedInput out = apply_partial_duplication(w, enable);
      const data::ChunkMatrix expected = materialized_residual(w, enable);
      ASSERT_EQ(out.residual.partitions(), expected.partitions());
      ASSERT_EQ(out.residual.nodes(), expected.nodes());
      for (std::size_t k = 0; k < expected.partitions(); ++k) {
        const auto row = out.residual.partition_row(k);
        for (std::size_t i = 0; i < expected.nodes(); ++i) {
          // Bit for bit, not within a tolerance.
          EXPECT_EQ(out.residual.h(k, i), expected.h(k, i))
              << "skew " << skew << " enable " << enable << " k " << k;
          EXPECT_EQ(row[i], expected.h(k, i));
        }
      }
    }
  }
}

// The residual views the workload's matrix, so preparing a temporary
// workload must not compile.
template <class W>
concept Preparable = requires(W&& w) {
  apply_partial_duplication(std::forward<W>(w), true);
};
static_assert(Preparable<const data::Workload&>);
static_assert(!Preparable<data::Workload>);

TEST(ApplyPartialDuplication, BadSkewInfoThrows) {
  auto w = skewed_workload();
  w.skew.skewed_bytes_per_node.pop_back();
  EXPECT_THROW(apply_partial_duplication(w, true), std::invalid_argument);
  auto w2 = skewed_workload();
  w2.skew.broadcast_source = 99;
  EXPECT_THROW(apply_partial_duplication(w2, true), std::invalid_argument);
  auto w3 = skewed_workload();
  w3.skew.hot_partition = w3.matrix.partitions();
  EXPECT_THROW(apply_partial_duplication(w3, true), std::invalid_argument);
}

}  // namespace
}  // namespace ccf::core
