// Pins net::Demand's contract (net/demand.hpp): the columnar triple store
// behind every layer's demand plane.
//
//  1. Merge semantics — duplicate (src,dst) insertions sum in insertion
//     order (FlowMatrix::add's accumulation order), zero volumes are
//     dropped, and the finalized views are unique pairs ascending (src,dst).
//  2. Validation — src == dst, out-of-range endpoints and negative or
//     non-finite volumes are rejected exactly like the downstream
//     Network::append_links contract requires.
//  3. Dense-bridge bit-identity — from_matrix/to_matrix round-trip,
//     to_flows matches FlowMatrix::to_flows entry for entry, marginals and
//     link/gamma metrics equal the dense path bitwise.
//  4. CSV ingestion — demand_from_csv streams triples with the same merge,
//     drop and rejection rules, and round-trips through demand_to_csv.
#include "net/demand.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/io.hpp"
#include "net/metrics.hpp"
#include "testing/leaf_spine.hpp"

namespace ccf::net {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

/// A small matrix with a diagonal entry, a zero and a few positives.
FlowMatrix sample_matrix() {
  FlowMatrix m(4);
  m.set(0, 1, 10.0);
  m.set(1, 2, 0.25);
  m.set(3, 0, 7.0);
  m.set(2, 2, 99.0);  // diagonal: never demand
  m.set(2, 3, 0.0);   // explicit zero: dropped
  return m;
}

TEST(Demand, DuplicatePairsSumInInsertionOrder) {
  Demand d(4);
  d.add(2, 1, 0.1);
  d.add(0, 3, 5.0);
  d.add(2, 1, 0.2);
  d.add(2, 1, 0.3);
  EXPECT_EQ(d.size(), 2u);
  // Exactly the dense accumulation: ((0.1 + 0.2) + 0.3), not any reordering.
  EXPECT_EQ(d.volume(2, 1), 0.1 + 0.2 + 0.3);
  EXPECT_EQ(d.volume(0, 3), 5.0);
  EXPECT_EQ(d.traffic(), d.volume(0, 3) + d.volume(2, 1));
}

TEST(Demand, ZeroVolumesDropConsistentlyWithDense) {
  const FlowMatrix m = sample_matrix();
  Demand d(4);
  d.add(0, 1, 10.0);
  d.add(1, 2, 0.25);
  d.add(3, 0, 7.0);
  d.add(2, 3, 0.0);  // dropped on entry

  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.flow_count(), m.flow_count());
  EXPECT_EQ(d.traffic(), m.traffic());
  EXPECT_EQ(d.volume(2, 3), 0.0);
  // The dense view reports zero for the dropped pair too.
  EXPECT_EQ(d.to_matrix().volume(2, 3), 0.0);
}

TEST(Demand, RejectsIntraRackOutOfRangeAndBadVolumes) {
  Demand d(4);
  EXPECT_THROW(d.add(1, 1, 5.0), std::invalid_argument);  // src == dst
  EXPECT_THROW(d.add(4, 0, 5.0), std::invalid_argument);  // src out of range
  EXPECT_THROW(d.add(0, 4, 5.0), std::invalid_argument);  // dst out of range
  EXPECT_THROW(d.add(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(d.add(0, 1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(d.add(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_TRUE(d.empty());  // failed adds leave no partial state
  EXPECT_THROW(Demand(0), std::invalid_argument);
  EXPECT_THROW(d.widen(2), std::invalid_argument);  // shrink
}

TEST(Demand, AccumulateValidatesLikeAdd) {
  Demand d(4);
  std::vector<Flow> flows(1);
  flows[0].src = 2;
  flows[0].dst = 2;
  flows[0].volume = 1.0;
  EXPECT_THROW(d.accumulate(std::span<const Flow>(flows)),
               std::invalid_argument);

  Demand narrow(2), wide(4);
  narrow.add(0, 1, 3.0);
  wide.accumulate(narrow);  // narrower-into-wider is the epoch widen path
  EXPECT_EQ(wide.volume(0, 1), 3.0);
  EXPECT_THROW(narrow.accumulate(wide), std::invalid_argument);

  FlowMatrix mismatched(3);
  EXPECT_THROW(d.accumulate(mismatched), std::invalid_argument);
}

TEST(Demand, ViewsAreSortedAndUnique) {
  Demand d(5);
  d.add(4, 0, 1.0);
  d.add(1, 3, 2.0);
  d.add(1, 2, 3.0);
  d.add(4, 0, 4.0);
  const auto srcs = d.srcs();
  const auto dsts = d.dsts();
  ASSERT_EQ(srcs.size(), 3u);
  for (std::size_t k = 1; k < srcs.size(); ++k) {
    const bool ascending =
        srcs[k - 1] < srcs[k] ||
        (srcs[k - 1] == srcs[k] && dsts[k - 1] < dsts[k]);
    EXPECT_TRUE(ascending) << k;
  }
  EXPECT_EQ(d.volumes()[2], 5.0);  // (4,0) merged
}

TEST(Demand, DenseBridgeRoundTripsBitwise) {
  const FlowMatrix m = sample_matrix();
  const Demand d = Demand::from_matrix(m);
  const FlowMatrix back = d.to_matrix();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i == j) continue;  // diagonal never crosses the bridge
      EXPECT_EQ(back.volume(i, j), m.volume(i, j)) << i << "," << j;
    }
  }

  const std::vector<Flow> dense = m.to_flows();
  const std::vector<Flow> sparse = d.to_flows();
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t k = 0; k < dense.size(); ++k) {
    EXPECT_EQ(sparse[k].src, dense[k].src) << k;
    EXPECT_EQ(sparse[k].dst, dense[k].dst) << k;
    EXPECT_EQ(sparse[k].volume, dense[k].volume) << k;
    EXPECT_EQ(sparse[k].remaining, dense[k].remaining) << k;
  }
}

TEST(Demand, MarginalsMatchDensePerPortLoads) {
  const FlowMatrix m = sample_matrix();
  const Demand::PortMarginals marginals = Demand::from_matrix(m).marginals();
  ASSERT_EQ(marginals.egress.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(marginals.egress[i], m.egress(i)) << i;
    EXPECT_EQ(marginals.ingress[i], m.ingress(i)) << i;
  }
  const PortLoads loads = port_loads(m);
  EXPECT_EQ(loads.max_egress, 10.0);
  EXPECT_EQ(loads.max_ingress, 10.0);
}

TEST(Demand, LinkAndGammaMetricsMatchDenseBitwise) {
  const auto rack = testing::one_spine_leaf_spine(2, 2, 100.0, 2.0);
  const Network& network = *rack;  // 4 hosts, oversubscribed
  FlowMatrix m(4);
  m.set(0, 2, 400.0);  // cross-rack
  m.set(0, 1, 100.0);  // intra-rack
  m.set(3, 1, 250.0);  // cross-rack
  Demand d(4);
  d.add(0, 2, 400.0);
  d.add(0, 1, 100.0);
  d.add(3, 1, 250.0);

  const std::vector<double> dense = link_loads(m, network);
  const std::vector<double> sparse = link_loads(d, network);
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t l = 0; l < dense.size(); ++l) {
    EXPECT_EQ(sparse[l], dense[l]) << l;
  }
  EXPECT_EQ(gamma_bound(d, network), gamma_bound(m, network));
}

TEST(Demand, WidenAndClearPreserveTheRightState) {
  Demand d(3);
  d.add(0, 2, 4.0);
  d.widen(8);
  EXPECT_EQ(d.nodes(), 8u);
  EXPECT_EQ(d.volume(0, 2), 4.0);
  d.add(7, 0, 1.0);  // the widened range is live
  d.clear();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.nodes(), 8u);
  EXPECT_EQ(d.traffic(), 0.0);
}

// --- CSV ingestion ---------------------------------------------------------

TEST(DemandIo, StreamsTriplesWithMergeAndHeader) {
  const auto path = temp_path("demand1.csv");
  write_file(path, "src,dst,bytes\n0,1,100\n2,0,50\n0,1,25\n1,2,0\n");
  const Demand d = demand_from_csv(path);
  EXPECT_EQ(d.nodes(), 3u);
  EXPECT_EQ(d.size(), 2u);             // duplicate merged, zero dropped
  EXPECT_EQ(d.volume(0, 1), 125.0);    // 100 + 25 in file order
  EXPECT_EQ(d.volume(2, 0), 50.0);
  EXPECT_EQ(d.traffic(), 175.0);
}

TEST(DemandIo, MatchesTheDenseReader) {
  const auto path = temp_path("demand2.csv");
  write_file(path, "0,3,10\n3,0,2.5\n1,2,0.125\n0,3,1\n");
  const Demand d = demand_from_csv(path, 5);
  const FlowMatrix m = flow_matrix_from_csv(path, 5);
  EXPECT_EQ(d.nodes(), m.nodes());
  const auto srcs = d.srcs();
  const auto dsts = d.dsts();
  const auto vols = d.volumes();
  for (std::size_t k = 0; k < vols.size(); ++k) {
    EXPECT_EQ(vols[k], m.volume(srcs[k], dsts[k])) << k;
  }
  EXPECT_EQ(d.traffic(), m.traffic());
}

TEST(DemandIo, RejectsTheContractViolations) {
  const auto path = temp_path("demand3.csv");
  write_file(path, "0,0,5\n");  // src == dst (Network::append_links contract)
  EXPECT_THROW(demand_from_csv(path), std::invalid_argument);
  write_file(path, "0,1,-5\n");
  EXPECT_THROW(demand_from_csv(path), std::invalid_argument);
  write_file(path, "0,7,5\n");
  EXPECT_THROW(demand_from_csv(path, 4), std::invalid_argument);
  write_file(path, "0,1\n");
  EXPECT_THROW(demand_from_csv(path), std::invalid_argument);
  EXPECT_THROW(demand_from_csv(temp_path("missing.csv")), std::runtime_error);
}

TEST(DemandIo, RoundTripsThroughCsv) {
  Demand d(6);
  d.add(5, 0, 0.5);
  d.add(1, 4, 123456.789);
  d.add(5, 0, 2.25);
  const auto path = temp_path("demand4.csv");
  demand_to_csv(d, path);
  const Demand back = demand_from_csv(path, 6);
  ASSERT_EQ(back.size(), d.size());
  EXPECT_EQ(back.volume(5, 0), d.volume(5, 0));
  EXPECT_EQ(back.volume(1, 4), d.volume(1, 4));
}

}  // namespace
}  // namespace ccf::net
