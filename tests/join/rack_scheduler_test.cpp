#include "join/rack_scheduler.hpp"

#include <gtest/gtest.h>

#include "data/workload.hpp"
#include "join/flows.hpp"
#include "net/metrics.hpp"
#include "testing/leaf_spine.hpp"
#include "util/rng.hpp"

namespace ccf::join {
namespace {

using testing::one_spine_leaf_spine;

// Rack-aware makespan of an assignment = Γ of its flows on the topology.
double rack_makespan(const data::ChunkMatrix& m,
                     const Assignment& dest, const net::Network& topo) {
  return net::gamma_bound(assignment_flows(m, dest), topo);
}

data::ChunkMatrix random_matrix(std::size_t p, std::size_t n,
                                std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 51), 51);
  data::ChunkMatrix m(p, n);
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t i = 0; i < n; ++i) m.set(k, i, rng.uniform(0.0, 100.0));
  }
  return m;
}

TEST(RackCcfScheduler, ValidAssignments) {
  const auto topo = one_spine_leaf_spine(3, 4, 10.0, 4.0);
  const auto m = random_matrix(24, 12, 1);
  AssignmentProblem prob;
  prob.matrix = &m;
  RackCcfScheduler sched(topo->topology());
  EXPECT_EQ(sched.name(), "ccf-rack");
  const Assignment dest = sched.schedule(prob);
  ASSERT_EQ(dest.size(), 24u);
  for (const auto d : dest) EXPECT_LT(d, 12u);
}

TEST(RackCcfScheduler, TopologySizeMismatchThrows) {
  const auto topo = one_spine_leaf_spine(2, 2, net::Fabric::kDefaultPortRate);
  const auto m = random_matrix(6, 12, 2);
  AssignmentProblem prob;
  prob.matrix = &m;
  RackCcfScheduler sched(topo->topology());
  EXPECT_THROW(sched.schedule(prob), std::invalid_argument);
}

TEST(RackCcfScheduler, MatchesExhaustiveOptimumOnTinyInstance) {
  const auto topo = one_spine_leaf_spine(2, 2, 10.0, 4.0);
  const auto m = random_matrix(5, 4, 3);
  AssignmentProblem prob;
  prob.matrix = &m;
  // Exhaustive search over 4^5 = 1024 assignments.
  Assignment dest(5, 0);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t code = 0; code < 1024; ++code) {
    std::size_t c = code;
    for (std::size_t k = 0; k < 5; ++k) {
      dest[k] = static_cast<std::uint32_t>(c % 4);
      c /= 4;
    }
    best = std::min(best, rack_makespan(m, dest, *topo));
  }
  const Assignment greedy = RackCcfScheduler(topo->topology()).schedule(prob);
  // Greedy is not exact, but must land within 40% of the true optimum on
  // these tiny instances and always produce a consistent T.
  EXPECT_LE(rack_makespan(m, greedy, *topo), best * 1.4 + 1e-9);
}

TEST(RackCcfScheduler, BeatsFlatCcfUnderOversubscription) {
  // Heavily oversubscribed uplinks: the flat heuristic ignores them and
  // scatters partitions across racks; the rack-aware one keeps traffic
  // local. Both are greedy, so dominance is statistical: individual seeds
  // may tie within a few percent, but the aggregate must favor rack-aware.
  double flat_total = 0.0, rack_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto topo = one_spine_leaf_spine(4, 5, 10.0, 8.0);
    data::WorkloadSpec spec;
    spec.nodes = 20;
    spec.partitions = 100;
    spec.customer_bytes = 1e6;
    spec.orders_bytes = 1e7;
    spec.zipf_theta = 0.8;
    spec.skew = 0.0;
    spec.align_zipf_ranks = false;
    spec.seed = 900 + seed;
    const auto w = data::generate_workload(spec);
    AssignmentProblem prob;
    prob.matrix = &w.matrix;
    const double flat =
        rack_makespan(w.matrix, CcfScheduler().schedule(prob), *topo);
    const double rack = rack_makespan(
        w.matrix, RackCcfScheduler(topo->topology()).schedule(prob), *topo);
    EXPECT_LE(rack, flat * 1.05 + 1e-9) << "seed " << seed;
    flat_total += flat;
    rack_total += rack;
  }
  EXPECT_LE(rack_total, flat_total + 1e-9);
}

TEST(RackCcfScheduler, DegeneratesGracefullyOnSingleRack) {
  // One full-bisection rack == the flat fabric: both heuristics should land
  // within a whisker of each other (tie-breaking may differ).
  const auto topo = one_spine_leaf_spine(1, 8, 10.0, 1.0);
  const auto m = random_matrix(40, 8, 5);
  AssignmentProblem prob;
  prob.matrix = &m;
  const double flat = rack_makespan(m, CcfScheduler().schedule(prob), *topo);
  const double rack = rack_makespan(
      m, RackCcfScheduler(topo->topology()).schedule(prob), *topo);
  EXPECT_NEAR(rack, flat, 0.05 * flat);
}

TEST(RackCcfScheduler, AccountsForInitialFlows) {
  const auto topo = one_spine_leaf_spine(2, 2, 10.0, 2.0);
  const auto m = random_matrix(8, 4, 6);
  AssignmentProblem prob;
  prob.matrix = &m;
  // Saturate rack 0 -> rack 1 with broadcast-like initial flows.
  net::FlowMatrix initial(4);
  initial.set(0, 2, 500.0);
  initial.set(1, 3, 500.0);
  RackCcfScheduler sched(topo->topology());
  const Assignment without = sched.schedule(prob);
  sched.set_initial_flows(&initial);
  const Assignment with = sched.schedule(prob);
  // The schedules may differ; what must hold is that accounting for the
  // initial flows never yields a worse combined Γ.
  auto combined_gamma = [&](const Assignment& dest) {
    return net::gamma_bound(assignment_flows(m, dest, initial), *topo);
  };
  EXPECT_LE(combined_gamma(with), combined_gamma(without) + 1e-9);
}

TEST(RackCcfScheduler, InitialFlowSizeMismatchThrows) {
  const auto topo = one_spine_leaf_spine(2, 2, net::Fabric::kDefaultPortRate);
  const auto m = random_matrix(4, 4, 7);
  AssignmentProblem prob;
  prob.matrix = &m;
  net::FlowMatrix wrong(5);
  RackCcfScheduler sched(topo->topology());
  sched.set_initial_flows(&wrong);
  EXPECT_THROW(sched.schedule(prob), std::invalid_argument);
}

TEST(RackCcfScheduler, RejectsAnyTopologyButAOneSpineLeafSpine) {
  const auto two_spines = net::Topology::leaf_spine(2, 2, 2, 10.0, 1.0);
  EXPECT_THROW(RackCcfScheduler{*two_spines}, std::invalid_argument);
  const auto fat_tree = net::Topology::fat_tree(4, 10.0);
  EXPECT_THROW(RackCcfScheduler{*fat_tree}, std::invalid_argument);
  const auto waxman = net::Topology::waxman(8, 10.0, 1, {});
  EXPECT_THROW(RackCcfScheduler{*waxman}, std::invalid_argument);
}

}  // namespace
}  // namespace ccf::join
