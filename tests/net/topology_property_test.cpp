// Cross-topology property sweep: on every Network — flat fabric, one-spine
// (rack) leaf-spine, two-spine leaf-spine routed by route_greedy — the same
// engine invariants hold:
//   (i)   single-coflow MADD CCT equals the analytic Γ of that topology;
//   (ii)  no allocator beats Γ;
//   (iii) bytes are conserved;
//   (iv)  Γ is monotone in topology restriction: flat <= rack <= routed
//         (each extra constraint layer can only slow the coflow).
#include <gtest/gtest.h>

#include <memory>

#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "testing/leaf_spine.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

constexpr std::size_t kRacks = 3;
constexpr std::size_t kHosts = 3;
constexpr std::size_t kNodes = kRacks * kHosts;
constexpr double kRate = 10.0;

FlowMatrix random_flows(std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 121), 121);
  FlowMatrix m(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i != j && rng.uniform01() < 0.5) {
        m.set(i, j, rng.uniform(1.0, 150.0));
      }
    }
  }
  if (m.traffic() <= 0.0) m.set(0, 1, 10.0);
  return m;
}

std::vector<std::shared_ptr<const Network>> topologies(const FlowMatrix& m) {
  std::vector<std::shared_ptr<const Network>> nets;
  nets.push_back(std::make_shared<const Fabric>(kNodes, kRate));
  nets.push_back(testing::one_spine_leaf_spine(kRacks, kHosts, kRate, 2.0));
  const auto mp = Topology::leaf_spine(kRacks, kHosts, 2, kRate, 2.0);
  nets.push_back(
      std::make_shared<const RoutedTopology>(mp, route_greedy(*mp, m)));
  return nets;
}

class TopologyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyProperty, MaddMatchesGammaOnEveryTopology) {
  const FlowMatrix m = random_flows(GetParam());
  for (const auto& net : topologies(m)) {
    const double gamma = gamma_bound(m, *net);
    Simulator sim(net, make_allocator("madd"));
    sim.add_coflow(CoflowSpec("c", 0.0, m));
    const SimReport r = sim.run();
    EXPECT_NEAR(r.coflows[0].cct(), gamma, 1e-6 * gamma + 1e-9);
  }
}

TEST_P(TopologyProperty, NoAllocatorBeatsGammaOnEveryTopology) {
  const FlowMatrix m = random_flows(GetParam() + 50);
  for (const auto& net : topologies(m)) {
    const double gamma = gamma_bound(m, *net);
    for (const char* name : {"fair", "varys", "aalo"}) {
      Simulator sim(net, make_allocator(name));
      sim.add_coflow(CoflowSpec("c", 0.0, m));
      EXPECT_GE(sim.run().coflows[0].cct(), gamma * (1.0 - 1e-9)) << name;
    }
  }
}

TEST_P(TopologyProperty, BytesConservedOnEveryTopology) {
  const FlowMatrix m = random_flows(GetParam() + 100);
  const double traffic = m.traffic();
  for (const auto& net : topologies(m)) {
    Simulator sim(net, make_allocator("fair"));
    sim.add_coflow(CoflowSpec("c", 0.0, m));
    EXPECT_NEAR(sim.run().total_bytes, traffic, 1e-6 * traffic + 1e-9);
  }
}

TEST_P(TopologyProperty, ConstraintLayersOnlySlowTheCoflow) {
  const FlowMatrix m = random_flows(GetParam() + 150);
  const Fabric flat(kNodes, kRate);
  const auto rack = testing::one_spine_leaf_spine(kRacks, kHosts, kRate, 2.0);
  const auto mp = Topology::leaf_spine(kRacks, kHosts, 2, kRate, 2.0);
  const RoutedTopology routed(mp, route_greedy(*mp, m));
  const double g_flat = gamma_bound(m, flat);
  const double g_rack = gamma_bound(m, *rack);
  const double g_routed = gamma_bound(m, routed);
  // Rack adds uplink constraints on top of the host ports; the routed
  // leaf-spine splits the same aggregate uplink over fixed per-flow paths.
  EXPECT_LE(g_flat, g_rack + 1e-9);
  EXPECT_LE(g_rack, g_routed + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ccf::net
