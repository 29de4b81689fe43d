#include "opt/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/bnb.hpp"
#include "testing/paper_example.hpp"
#include "util/rng.hpp"

namespace ccf::opt {
namespace {

TEST(MinPartitionTraffic, LeavesLargestChunkLocal) {
  const auto m = testing::paper_chunk_matrix();
  EXPECT_DOUBLE_EQ(min_partition_traffic(m, 0), 1.0);  // key 0: 4 - 3
  EXPECT_DOUBLE_EQ(min_partition_traffic(m, 1), 3.0);  // key 1: 9 - 6
  EXPECT_DOUBLE_EQ(min_partition_traffic(m, 2), 1.0);  // key 2: 3 - 2
  EXPECT_DOUBLE_EQ(min_partition_traffic(m, 5), 1.0);  // key 5: 3 - 2
  EXPECT_DOUBLE_EQ(min_partition_traffic(m, 3), 0.0);  // empty
}

TEST(RootLowerBound, PaperExampleIsBetweenSpreadAndOptimum) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  const double lb = root_lower_bound(p, PartitionStats(p.matrix));
  // Unavoidable traffic 6 over 3 nodes -> spread bound 2; largest single
  // unavoidable move 3 (partition 1). Bound = 3 == the true optimum here.
  EXPECT_DOUBLE_EQ(lb, 3.0);
  EXPECT_LE(lb, testing::kOptimalMakespan);
}

TEST(RootLowerBound, AccountsForInitialLoads) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  p.initial_egress = {50.0, 0.0, 0.0};
  EXPECT_GE(root_lower_bound(p, PartitionStats(p.matrix)), 50.0);
}

TEST(RootLowerBound, NeverExceedsExactOptimum) {
  // Random instances: lb <= T*(found by exact solver).
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 8), 8);
    data::ChunkMatrix m(6, 3);
    for (std::size_t k = 0; k < 6; ++k) {
      for (std::size_t i = 0; i < 3; ++i) {
        m.set(k, i, rng.uniform(0.0, 10.0));
      }
    }
    AssignmentProblem p;
    p.matrix = &m;
    const auto exact = solve_exact(p);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(root_lower_bound(p, PartitionStats(p.matrix)), exact.T + 1e-9)
        << "seed " << seed;
  }
}

TEST(PartialLowerBound, AtLeastCurrentT) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  const std::vector<double> egress = {5.0, 0.0, 0.0};
  const std::vector<double> ingress = {0.0, 2.0, 0.0};
  const std::vector<std::uint32_t> unassigned = {1, 2};
  EXPECT_GE(partial_lower_bound(p, egress, ingress, unassigned, 5.0), 5.0);
}

TEST(PartialLowerBound, GrowsWithUnassignedVolume) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  const std::vector<double> zero(3, 0.0);
  const std::vector<std::uint32_t> none = {};
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5};
  EXPECT_LT(partial_lower_bound(p, zero, zero, none, 0.0),
            partial_lower_bound(p, zero, zero, all, 0.0));
  // All partitions unassigned: spread bound = 6 / 3 = 2.
  EXPECT_DOUBLE_EQ(partial_lower_bound(p, zero, zero, all, 0.0), 2.0);
}

TEST(Top2Kernel, TracksMaxSecondAndArgmax) {
  const std::vector<double> v = {3.0, 7.0, 5.0, 7.0};
  const Top2 t = top2(v);
  EXPECT_EQ(t.arg_max, 1u);  // first of the tied maxima
  EXPECT_DOUBLE_EQ(t.max, 7.0);
  EXPECT_DOUBLE_EQ(t.second, 7.0);

  const std::vector<double> base = {1.0, 2.0, 3.0};
  const std::vector<double> add = {5.0, 0.0, 1.0};
  const Top2 s = top2_sum(base, add);  // sums: 6, 2, 4
  EXPECT_EQ(s.arg_max, 0u);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.second, 4.0);
}

TEST(PlacementBottleneck, MatchesNaiveRescan) {
  const auto m = testing::paper_chunk_matrix();
  const std::vector<double> egress = {1.0, 4.0, 2.0};
  const std::vector<double> ingress = {3.0, 0.5, 2.5};
  for (std::size_t k = 0; k < m.partitions(); ++k) {
    const auto row = m.partition_row(k);
    const double sk = m.partition_total(k);
    const Top2 eg = top2_sum(egress, row);
    const Top2 in = top2(ingress);
    for (std::uint32_t d = 0; d < 3; ++d) {
      double naive = 0.0;
      for (std::size_t i = 0; i < 3; ++i) {
        naive = std::max(naive, i == d ? egress[i] : egress[i] + row[i]);
        naive = std::max(naive,
                         i == d ? ingress[i] + (sk - row[d]) : ingress[i]);
      }
      EXPECT_DOUBLE_EQ(placement_bottleneck(eg, in, egress[d], ingress[d], sk,
                                            row[d], d),
                       naive)
          << "partition " << k << " dest " << d;
    }
  }
}

TEST(WaterFillLevel, KnownValues) {
  std::vector<double> scratch;
  // Empty ports: volume spreads evenly.
  EXPECT_DOUBLE_EQ(water_fill_level(std::vector<double>{0, 0, 0}, 6.0, scratch),
                   2.0);
  // One port sticks out above the final level and contributes no capacity:
  // 6 bytes over loads {0, 0, 9} fill the two low ports to 3, not (6+9)/3 = 5.
  EXPECT_DOUBLE_EQ(water_fill_level(std::vector<double>{0, 0, 9}, 6.0, scratch),
                   3.0);
  // Volume large enough to submerge everything: exact average.
  EXPECT_DOUBLE_EQ(water_fill_level(std::vector<double>{0, 0, 9}, 100.0,
                                    scratch),
                   (100.0 + 9.0) / 3.0);
  // Zero volume: the level is the water already over the lowest port.
  EXPECT_DOUBLE_EQ(water_fill_level(std::vector<double>{4, 7, 9}, 0.0, scratch),
                   4.0);
}

TEST(WaterFillLevel, DominatesAveragingGivenTheProfileMax) {
  // The packing bound is used as max(current_T, level) with current_T >= the
  // largest committed load; that combination dominates the averaging bound
  // (total + volume) / n. (The level alone does not: a port far above the
  // final water line holds mass the average counts but the water line
  // ignores.)
  util::Pcg32 rng(util::derive_seed(3, 4), 4);
  std::vector<double> scratch;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> loads(3 + trial % 4);
    double total = 0.0, max_load = 0.0;
    for (double& v : loads) {
      v = rng.uniform(0.0, 50.0);
      total += v;
      max_load = std::max(max_load, v);
    }
    const double volume = rng.uniform(0.0, 100.0);
    const double avg = (total + volume) / static_cast<double>(loads.size());
    const double level = water_fill_level(loads, volume, scratch);
    EXPECT_GE(std::max(level, max_load) + 1e-9, avg);
  }
}

// The strong infeasibility tests may only ever prune suboptimal subtrees:
// at the root with T slightly above the exact optimum they must report
// "feasible", or the solver would prune its own optimum away.
TEST(InfeasibleBelow, NeverCutsTheOptimum) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 29), 29);
    const std::size_t n = 2 + seed % 3;
    const std::size_t parts = 5 + seed % 3;
    data::ChunkMatrix m(parts, n);
    for (std::size_t k = 0; k < parts; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        m.set(k, i, std::floor(rng.uniform(0.0, 20.0)));
      }
    }
    AssignmentProblem p;
    p.matrix = &m;
    const auto exact = solve_exact(p);
    ASSERT_TRUE(exact.optimal);

    const PartitionStats stats(p.matrix);
    const PruneStatics statics = make_prune_statics(p, stats);
    std::vector<std::uint32_t> order(parts);
    std::vector<std::size_t> pos(parts);
    for (std::size_t k = 0; k < parts; ++k) order[k] = (std::uint32_t)k;
    for (std::size_t k = 0; k < parts; ++k) pos[order[k]] = k;
    std::vector<double> egress(n, 0.0), ingress(n, 0.0);
    std::vector<double> future_chunks(n, 0.0);
    double future_rsecond = 0.0;
    for (std::size_t k = 0; k < parts; ++k) {
      future_rsecond += stats.rsecond(k);
      for (std::size_t i = 0; i < n; ++i) future_chunks[i] += m.h(k, i);
    }
    PrunePrefix v;
    v.egress = egress;
    v.ingress = ingress;
    v.order = order;
    v.depth = 0;
    v.pos = pos;
    v.future_rsecond = future_rsecond;
    v.future_chunks = future_chunks;
    // A completion with makespan exactly T* exists, so "below T* + eps" must
    // be feasible for every valid necessary condition.
    EXPECT_FALSE(
        infeasible_below(p, stats, statics, v, exact.T * (1.0 + 1e-9) + 1.0))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccf::opt
