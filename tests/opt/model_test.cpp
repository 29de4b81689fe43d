#include "opt/model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "testing/paper_example.hpp"

namespace ccf::opt {
namespace {

using testing::paper_chunk_matrix;

AssignmentProblem problem_for(const data::ChunkMatrix& m) {
  AssignmentProblem p;
  p.matrix = &m;
  return p;
}

TEST(Evaluate, PaperSp1LoadsAndMakespan) {
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const auto sp1 = testing::paper_sp1();
  const LoadProfile loads = evaluate(p, sp1);
  // Fig. 2(c): egress p1=3 (key1 tuples), p2=3 (2 of key2 + 1 of key5),
  // p3=1 (key0); ingress p1=3, p2=3, p3=1.
  EXPECT_DOUBLE_EQ(loads.egress[0], 3.0);
  EXPECT_DOUBLE_EQ(loads.egress[1], 3.0);
  EXPECT_DOUBLE_EQ(loads.egress[2], 1.0);
  EXPECT_DOUBLE_EQ(loads.ingress[0], 3.0);
  EXPECT_DOUBLE_EQ(loads.ingress[1], 3.0);
  EXPECT_DOUBLE_EQ(loads.ingress[2], 1.0);
  EXPECT_DOUBLE_EQ(loads.makespan(), testing::kMakespanSp1);
}

TEST(Evaluate, PaperSp2AndSp0Makespans) {
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const auto sp2 = testing::paper_sp2();
  EXPECT_DOUBLE_EQ(makespan(p, sp2), testing::kMakespanSp2);
  const auto sp0 = testing::paper_sp0();
  EXPECT_DOUBLE_EQ(makespan(p, sp0), testing::kMakespanSp0);
}

TEST(Traffic, MatchesPaperTupleCounts) {
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const auto sp0 = testing::paper_sp0();
  const auto sp1 = testing::paper_sp1();
  const auto sp2 = testing::paper_sp2();
  EXPECT_DOUBLE_EQ(traffic(p, sp0), testing::kTrafficSp0);
  EXPECT_DOUBLE_EQ(traffic(p, sp1), testing::kTrafficSp1);
  EXPECT_DOUBLE_EQ(traffic(p, sp2), testing::kTrafficSp2);
}

TEST(Evaluate, InitialLoadsAreAdded) {
  const auto m = paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  p.initial_egress = {10.0, 0.0, 0.0};
  p.initial_ingress = {0.0, 0.0, 20.0};
  const auto sp1 = testing::paper_sp1();
  const LoadProfile loads = evaluate(p, sp1);
  EXPECT_DOUBLE_EQ(loads.egress[0], 13.0);
  EXPECT_DOUBLE_EQ(loads.ingress[2], 21.0);
  EXPECT_DOUBLE_EQ(loads.makespan(), 21.0);
}

TEST(Evaluate, ValidationErrors) {
  AssignmentProblem p;  // null matrix
  std::vector<std::uint32_t> dest;
  EXPECT_THROW(evaluate(p, dest), std::invalid_argument);

  const auto m = paper_chunk_matrix();
  p.matrix = &m;
  dest = {0, 0};  // wrong size
  EXPECT_THROW(evaluate(p, dest), std::invalid_argument);

  dest = testing::paper_sp1();
  dest[0] = 99;  // out of range destination
  EXPECT_THROW(evaluate(p, dest), std::invalid_argument);

  p.initial_egress = {1.0};  // wrong length
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ToLpString, ContainsModelStructure) {
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const std::string lp = to_lp_string(p);
  EXPECT_NE(lp.find("Minimize"), std::string::npos);
  EXPECT_NE(lp.find("obj: T"), std::string::npos);
  EXPECT_NE(lp.find("egress_0:"), std::string::npos);
  EXPECT_NE(lp.find("ingress_2:"), std::string::npos);
  EXPECT_NE(lp.find("assign_5:"), std::string::npos);
  EXPECT_NE(lp.find("Binary"), std::string::npos);
  EXPECT_NE(lp.find("x_0_0"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
  // One assignment row per partition.
  std::size_t count = 0, pos = 0;
  while ((pos = lp.find("assign_", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, testing::kPaperPartitions);
}

TEST(GreedyReference, BeatsHashAndMiniOnPaperExample) {
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const Assignment greedy = greedy_reference(p);
  EXPECT_EQ(greedy.size(), m.partitions());
  const double t = makespan(p, greedy);
  // Algorithm 1 must find a plan at least as good as SP1 here.
  EXPECT_LE(t, testing::kMakespanSp1);
  EXPECT_DOUBLE_EQ(t, testing::kOptimalMakespan);
}

TEST(GreedyReference, RespectsInitialLoads) {
  // Seed node 1 with huge initial ingress: the greedy must avoid sending
  // partition 1's mass there... it can still keep node1's own chunk local.
  const auto m = paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  p.initial_ingress = {0.0, 100.0, 0.0};
  const Assignment greedy = greedy_reference(p);
  // Whatever the placement, the makespan cannot drop below the initial load,
  // and placing anything *into* node 1 would only raise it.
  EXPECT_DOUBLE_EQ(makespan(p, greedy), 100.0);
}

TEST(LoadProfile, PlaceMatchesEvaluate) {
  // Landing every partition through place() gives evaluate()'s loads (the
  // paper example's chunk sums are exact in binary).
  const auto m = paper_chunk_matrix();
  const auto p = problem_for(m);
  const Assignment sp1 = testing::paper_sp1();
  LoadProfile loads = initial_loads(p);
  for (std::size_t k = 0; k < m.partitions(); ++k) {
    loads.place(m.partition_row(k), m.partition_total(k), sp1[k]);
  }
  const LoadProfile expected = evaluate(p, sp1);
  EXPECT_EQ(loads.egress, expected.egress);
  EXPECT_EQ(loads.ingress, expected.ingress);
}

TEST(LoadProfile, RestoreUndoesPlaceAndRemoveBitForBit) {
  // Chunks whose sums round: (x + h) - h != x for some of them, so only a
  // saved copy gets the loads back exactly.
  LoadProfile loads;
  loads.egress = {0.1, 0.7, 1e16, 3.3};
  loads.ingress = {0.2, 1e-3, 5.5, 1e16};
  const std::vector<double> row = {0.3, 0.1, 1.0, 0.7};
  const double total = 0.3 + 0.1 + 1.0 + 0.7;
  for (std::size_t d = 0; d < 4; ++d) {
    const LoadProfile before = loads;
    LoadProfile undo;
    loads.save(d, undo);
    loads.place(row, total, d);
    EXPECT_EQ(loads.egress[d], before.egress[d]);  // d keeps its own chunk
    loads.restore(d, undo);
    EXPECT_EQ(loads.egress, before.egress);
    EXPECT_EQ(loads.ingress, before.ingress);
    loads.save(d, undo);
    loads.remove(row, total, d);
    loads.restore(d, undo);
    EXPECT_EQ(loads.egress, before.egress);
    EXPECT_EQ(loads.ingress, before.ingress);
  }
}

}  // namespace
}  // namespace ccf::opt
