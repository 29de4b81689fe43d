// Pins for every caller of the Algorithm-1 greedy.
//
// The recorded assignments below were produced by the per-caller greedy
// copies that preceded the shared kernel (opt/greedy.hpp). The instances
// carry initial loads and tied chunks — chunk sizes are multiples of 0.1 from
// a small range — so equal sort keys and equal candidate scores are common.
// A change in comparison order or in the order of a floating-point sum shows
// up here as a different assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "join/hetero_scheduler.hpp"
#include "join/schedulers.hpp"
#include "net/fabric.hpp"
#include "opt/local_search.hpp"
#include "util/rng.hpp"

namespace ccf::opt {
namespace {

data::ChunkMatrix tied_matrix(std::size_t p, std::size_t n,
                              std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 77), 77);
  data::ChunkMatrix m(p, n);
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      m.set(k, i, 0.1 * std::floor(rng.uniform(0.0, 40.0)));
    }
  }
  return m;
}

AssignmentProblem loaded_problem(const data::ChunkMatrix& m,
                                 std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 78), 78);
  AssignmentProblem problem;
  problem.matrix = &m;
  problem.initial_egress.resize(m.nodes());
  problem.initial_ingress.resize(m.nodes());
  for (std::size_t i = 0; i < m.nodes(); ++i) {
    problem.initial_egress[i] = 0.1 * std::floor(rng.uniform(0.0, 60.0));
    problem.initial_ingress[i] = 0.1 * std::floor(rng.uniform(0.0, 60.0));
  }
  return problem;
}

/// The assignment as a C++ initializer, so a failing pin prints what to
/// record.
std::string literal(const Assignment& dest) {
  std::ostringstream out;
  out << "{";
  for (std::size_t k = 0; k < dest.size(); ++k) {
    out << (k ? ", " : "") << dest[k];
  }
  out << "}";
  return out.str();
}

// The table every placement search reads must hold exactly what the row
// scans it replaces computed, bit for bit.
TEST(PartitionStats, MatchesRowAggregates) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto m = tied_matrix(20, seed % 5 + 1, seed);
    const PartitionStats stats(m);
    for (std::size_t k = 0; k < m.partitions(); ++k) {
      EXPECT_EQ(stats.total[k], m.partition_total(k));
      EXPECT_EQ(stats.max[k], m.partition_max(k));
      EXPECT_EQ(stats.arg_max[k], m.partition_argmax(k));
      std::vector<double> row(m.partition_row(k).begin(),
                              m.partition_row(k).end());
      std::sort(row.rbegin(), row.rend());
      EXPECT_EQ(stats.second[k], row.size() > 1 ? row[1] : 0.0);
    }
  }
}

TEST(GreedyPin, GraspWithOneStartIsCcfLs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto m = tied_matrix(8 + 4 * (seed % 5), 3 + seed % 5, seed);
    const AssignmentProblem problem = loaded_problem(m, seed);
    GraspOptions options;
    options.starts = 1;
    EXPECT_EQ(grasp(problem, options).dest,
              join::CcfLsScheduler().schedule(problem))
        << "seed " << seed;
  }
}

TEST(GreedyPin, GraspPortfolioMatchesRecordedAssignment) {
  // On this instance a randomized start wins, so the pin covers the
  // perturbed sort keys and the restricted-candidate-list picks.
  const auto m = tied_matrix(30, 6, 44);
  const AssignmentProblem problem = loaded_problem(m, 44);
  GraspOptions options;
  options.starts = 8;
  options.seed = 3;
  options.threads = 2;
  const GraspResult r = grasp(problem, options);
  const Assignment expected = {
      0, 5, 3, 0, 1, 2, 2, 4, 4, 5, 5, 3, 5, 4, 1, 0, 0, 1, 3, 4, 5, 2, 2, 2,
      0, 3, 1, 3, 4, 1};
  EXPECT_EQ(r.dest, expected) << literal(r.dest);
  EXPECT_EQ(r.best_start, 3u);
}

TEST(GreedyPin, HeteroMatchesRecordedAssignment) {
  const auto m = tied_matrix(30, 6, 42);
  const AssignmentProblem problem = loaded_problem(m, 42);
  const net::Fabric fabric({10.0, 40.0, 25.0, 40.0, 10.0, 40.0},
                           {40.0, 10.0, 40.0, 25.0, 40.0, 20.0});
  const Assignment dest = join::HeteroCcfScheduler(fabric).schedule(problem);
  const Assignment expected = {
      0, 4, 4, 4, 0, 4, 0, 0, 4, 4, 0, 4, 0, 1, 4, 0, 1, 1, 4, 4, 0, 0, 0, 0,
      4, 2, 4, 4, 4, 0};
  EXPECT_EQ(dest, expected) << literal(dest);
}

TEST(GreedyPin, ReplaceOneFailedNodeMatchesRecordedAssignment) {
  const auto m = tied_matrix(30, 6, 43);
  const AssignmentProblem problem = loaded_problem(m, 43);
  const Assignment before = join::HashScheduler().schedule(problem);
  const std::uint32_t failed[] = {2};
  const Assignment dest =
      join::replace_failed_destinations(problem, before, failed);
  const Assignment expected = {
      0, 1, 3, 3, 4, 5, 0, 1, 1, 3, 4, 5, 0, 1, 4, 3, 4, 5, 0, 1, 3, 3, 4, 5,
      0, 1, 5, 3, 4, 5};
  EXPECT_EQ(dest, expected) << literal(dest);
}

TEST(GreedyPin, ReplaceTwoFailedNodesMatchesRecordedAssignment) {
  const auto m = tied_matrix(30, 6, 45);
  const AssignmentProblem problem = loaded_problem(m, 45);
  const Assignment before = join::CcfScheduler().schedule(problem);
  const std::uint32_t failed[] = {1, 4};
  const Assignment dest =
      join::replace_failed_destinations(problem, before, failed);
  const Assignment expected = {
      5, 0, 5, 2, 0, 5, 0, 0, 3, 5, 3, 0, 2, 2, 5, 2, 5, 3, 2, 3, 3, 3, 0, 3,
      2, 3, 2, 0, 2, 0};
  EXPECT_EQ(dest, expected) << literal(dest);
}

}  // namespace
}  // namespace ccf::opt
