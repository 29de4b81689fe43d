// Unit + golden tests of the general topology layer (src/net/topology.hpp):
// link layout and capacities of each factory against hand-computed values,
// route-set sizes, the intra-rack src==dst short-circuit and the
// append_links src != dst contract, TopologySpec parsing, seeded generator
// determinism (same seed -> same topology, build after build), and Γ and
// simulated CCTs on the two-tier rack model (a one-spine leaf-spine).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "net/metrics.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "testing/leaf_spine.hpp"

namespace ccf::net {
namespace {

// --- leaf-spine golden ------------------------------------------------

TEST(TopologyLeafSpine, MatchesHandComputedLayout) {
  // 2 racks x 2 hosts, 2 spines, 2:1 oversubscription at 10 B/s ports.
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 2.0);
  ASSERT_EQ(topo->nodes(), 4u);
  EXPECT_EQ(topo->kind(), TopologyKind::kLeafSpine);
  // 2n host ports + R*S uplinks + R*S downlinks.
  ASSERT_EQ(topo->link_count(), 8u + 4u + 4u);
  EXPECT_EQ(topo->graph_nodes(), 4u + 2u + 2u);  // hosts + ToRs + spines

  for (Topology::LinkId l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 10.0) << "host port " << l;
  }
  // Per-uplink capacity: hosts * rate / (oversub * spines) = 2*10/(2*2) = 5.
  for (Topology::LinkId l = 8; l < 16; ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 5.0) << "switch link " << l;
  }

  // Intra-rack pair: the switch layer is short-circuited.
  EXPECT_EQ(topo->path_count(0, 1), 1u);
  EXPECT_EQ(topo->path_links(0, 1, 0), (std::vector<Topology::LinkId>{0, 5}));

  // Cross-rack pair: one path per spine, leaf_spine's id layout
  // (up(r,s) = 2n + r*S + s, down(r,s) = 2n + R*S + r*S + s).
  ASSERT_EQ(topo->path_count(0, 2), 2u);
  EXPECT_EQ(topo->path_links(0, 2, 0),
            (std::vector<Topology::LinkId>{0, 8, 14, 6}));
  EXPECT_EQ(topo->path_links(0, 2, 1),
            (std::vector<Topology::LinkId>{0, 9, 15, 6}));
  EXPECT_EQ(topo->max_path_count(), 2u);

  // Undersubscription (the flat-equivalence regime) is allowed.
  const auto fat = Topology::leaf_spine(2, 2, 2, 10.0, 0.25);
  EXPECT_DOUBLE_EQ(fat->link_capacity(8), 40.0);
}

TEST(TopologyLeafSpine, RejectsBadDimensions) {
  EXPECT_THROW(Topology::leaf_spine(0, 2, 2, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 0, 2, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 0, 10.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, 10.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 2, 2, -1.0, 1.0),
               std::invalid_argument);
}

// --- fat-tree golden --------------------------------------------------

TEST(TopologyFatTree, MatchesAlFaresStructure) {
  // k=4: 16 hosts, 8 edge + 8 agg + 4 core switches.
  const auto topo = Topology::fat_tree(4, 10.0);
  ASSERT_EQ(topo->nodes(), 16u);
  EXPECT_EQ(topo->kind(), TopologyKind::kFatTree);
  EXPECT_EQ(topo->graph_nodes(), 16u + 8u + 8u + 4u);
  // 2n host ports + 2 * (edge-agg pairs) + 2 * (agg-core pairs).
  EXPECT_EQ(topo->link_count(), 32u + 2u * 16u + 2u * 16u);

  // Full bisection: every link runs at the host rate.
  for (Topology::LinkId l = 0; l < topo->link_count(); ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 10.0) << "link " << l;
  }

  // Path counts: 1 under one edge switch, k/2 inside a pod, (k/2)^2 across
  // pods. Hosts 0,1 share edge (0,0); host 2 is under edge (0,1); host 4
  // lives in pod 1.
  EXPECT_EQ(topo->path_count(0, 1), 1u);
  EXPECT_EQ(topo->path_count(0, 2), 2u);
  EXPECT_EQ(topo->path_count(0, 4), 4u);
  EXPECT_EQ(topo->max_path_count(), 4u);

  // Same-edge pair short-circuits the switch fabric entirely.
  EXPECT_EQ(topo->path_links(0, 1, 0),
            (std::vector<Topology::LinkId>{0, 16 + 1}));

  // An inter-pod path has exactly egress + 4 switch links + ingress, and its
  // link endpoints chain src -> ... -> dst.
  const auto path = topo->path_links(0, 4, 3);
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(topo->link_ends(path.front()).tail, 0u);
  EXPECT_EQ(topo->link_ends(path.back()).head, 4u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(topo->link_ends(path[i]).head, topo->link_ends(path[i + 1]).tail)
        << "hop " << i;
  }

  // Core oversubscription scales only the agg<->core layer.
  const auto thin = Topology::fat_tree(4, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(thin->link_capacity(32), 10.0);       // edge-agg
  EXPECT_DOUBLE_EQ(thin->link_capacity(32 + 32), 5.0);   // agg-core

  EXPECT_THROW(Topology::fat_tree(3, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology::fat_tree(0, 10.0), std::invalid_argument);
}

// --- waxman golden + determinism --------------------------------------

TEST(TopologyWaxman, SameSeedSameTopology) {
  WaxmanOptions options;
  options.routers = 6;
  options.route_k = 3;
  const auto a = Topology::waxman(12, 10.0, 42, options);
  const auto b = Topology::waxman(12, 10.0, 42, options);
  ASSERT_EQ(a->nodes(), b->nodes());
  ASSERT_EQ(a->link_count(), b->link_count());
  for (Topology::LinkId l = 0; l < a->link_count(); ++l) {
    EXPECT_DOUBLE_EQ(a->link_capacity(l), b->link_capacity(l));
    EXPECT_EQ(a->link_ends(l).tail, b->link_ends(l).tail);
    EXPECT_EQ(a->link_ends(l).head, b->link_ends(l).head);
  }
  for (std::uint32_t i = 0; i < a->nodes(); ++i) {
    for (std::uint32_t j = 0; j < a->nodes(); ++j) {
      if (i == j) continue;
      ASSERT_EQ(a->path_count(i, j), b->path_count(i, j));
      for (std::uint32_t k = 0; k < a->path_count(i, j); ++k) {
        EXPECT_EQ(a->path_links(i, j, k), b->path_links(i, j, k));
      }
    }
  }
}

TEST(TopologyWaxman, DifferentSeedsDiverge) {
  // Two seeds agreeing on every link end would mean the seed is ignored.
  WaxmanOptions options;
  options.routers = 8;
  const auto a = Topology::waxman(16, 10.0, 1, options);
  const auto b = Topology::waxman(16, 10.0, 2, options);
  bool diverged = a->link_count() != b->link_count();
  for (Topology::LinkId l = 0; !diverged && l < a->link_count(); ++l) {
    diverged = a->link_ends(l).tail != b->link_ends(l).tail ||
               a->link_ends(l).head != b->link_ends(l).head;
  }
  EXPECT_TRUE(diverged);
}

TEST(TopologyWaxman, EveryPairRoutedAndCapacitiesPositive) {
  const auto topo = Topology::waxman(10, 10.0, 7, {});
  for (Topology::LinkId l = 0; l < topo->link_count(); ++l) {
    EXPECT_GT(topo->link_capacity(l), 0.0);
  }
  for (std::uint32_t i = 0; i < topo->nodes(); ++i) {
    for (std::uint32_t j = 0; j < topo->nodes(); ++j) {
      if (i != j) {
        EXPECT_GE(topo->path_count(i, j), 1u);
      }
    }
  }
  EXPECT_THROW(Topology::waxman(4, 10.0, 1, {.routers = 9}),
               std::invalid_argument);
  EXPECT_THROW(Topology::waxman(4, 10.0, 1, {.alpha = 1.5}),
               std::invalid_argument);
}

// --- RoutedTopology as a Network --------------------------------------

TEST(RoutedTopology, AdaptsChoiceToAppendLinks) {
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 1.0);
  RouteChoice choice = route_ecmp(*topo);
  choice[0 * 4 + 2] = 1;  // pin (0 -> 2) onto spine 1
  const RoutedTopology net(topo, choice);
  EXPECT_EQ(net.nodes(), 4u);
  EXPECT_EQ(net.link_count(), topo->link_count());
  EXPECT_EQ(net.links_of(0, 2), topo->path_links(0, 2, 1));
  EXPECT_EQ(net.links_of(0, 1), topo->path_links(0, 1, 0));

  EXPECT_THROW(RoutedTopology(nullptr, choice), std::invalid_argument);
  EXPECT_THROW(RoutedTopology(topo, RouteChoice(3, 0)), std::invalid_argument);
  RouteChoice bad = route_ecmp(*topo);
  bad[0 * 4 + 2] = 9;
  EXPECT_THROW(RoutedTopology(topo, bad), std::out_of_range);
}

TEST(RouteEcmp, DeterministicHashOverSpines) {
  const auto topo = Topology::leaf_spine(3, 2, 3, 10.0, 1.0);
  const RouteChoice choice = route_ecmp(*topo);
  for (std::uint32_t i = 0; i < 6; ++i) {
    for (std::uint32_t j = 0; j < 6; ++j) {
      if (i / 2 != j / 2) {  // cross-rack: one path per spine
        EXPECT_EQ(choice[i * 6 + j], (i + j) % 3);
      }
    }
  }
}

// --- the two-tier rack model: a one-spine leaf-spine -------------------
//
// The rack fabric of §III-A: each rack behind one uplink (LinkId 2n + r)
// and one downlink (2n + R + r) of hosts * rate / oversub.

TEST(RackFabric, BasicGeometry) {
  const auto topo = Topology::leaf_spine(3, 4, 1, 100.0, 2.0);
  EXPECT_EQ(topo->nodes(), 12u);
  EXPECT_EQ(topo->link_count(), 2u * 12 + 2 * 3);
  EXPECT_EQ(topo->graph_nodes(), 12u + 3 + 1);  // hosts + ToRs + one spine
  EXPECT_EQ(topo->max_path_count(), 1u);
  EXPECT_DOUBLE_EQ(topo->link_capacity(0), 100.0);
  // Uplink = 4 hosts x 100 / oversub 2 = 200.
  EXPECT_DOUBLE_EQ(topo->link_capacity(24), 200.0);
  // Host h sits in rack h / 4: its egress port ends at ToR graph node n + r.
  EXPECT_EQ(topo->link_ends(0).head, 12u + 0);
  EXPECT_EQ(topo->link_ends(3).head, 12u + 0);
  EXPECT_EQ(topo->link_ends(4).head, 12u + 1);
  EXPECT_EQ(topo->link_ends(11).head, 12u + 2);
}

TEST(RackFabric, LinkCapacities) {
  const auto topo = testing::one_spine_leaf_spine(2, 3, 10.0, 1.5);
  for (Network::LinkId port = 0; port < 12; ++port) {  // egress, ingress
    EXPECT_DOUBLE_EQ(topo->link_capacity(port), 10.0) << "host port " << port;
  }
  // Uplinks 12, 13 and downlinks 14, 15: 3 hosts x 10 / 1.5 = 20.
  for (Network::LinkId l = 12; l < 16; ++l) {
    EXPECT_DOUBLE_EQ(topo->link_capacity(l), 20.0) << "switch link " << l;
  }
  EXPECT_THROW(topo->link_capacity(99), std::out_of_range);
}

TEST(RackFabric, IntraRackFlowUsesTwoLinks) {
  const auto topo =
      testing::one_spine_leaf_spine(2, 3, Fabric::kDefaultPortRate);
  const auto links = topo->links_of(0, 2);  // both in rack 0
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], 0u);      // egress of host 0
  EXPECT_EQ(links[1], 6u + 2);  // ingress of host 2
}

TEST(RackFabric, CrossRackFlowUsesFourLinks) {
  const auto topo =
      testing::one_spine_leaf_spine(2, 3, Fabric::kDefaultPortRate);
  const auto links = topo->links_of(1, 4);  // rack 0 -> rack 1
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0], 1u);           // egress of host 1
  EXPECT_EQ(links[1], 12u + 0);      // rack 0's uplink
  EXPECT_EQ(links[2], 12u + 2 + 1);  // rack 1's downlink
  EXPECT_EQ(links[3], 6u + 4);       // ingress of host 4
}

TEST(RackGamma, UplinkBecomesTheBottleneck) {
  // 2 racks x 2 hosts, host rate 10, oversub 4 -> uplink 5.
  const auto topo = testing::one_spine_leaf_spine(2, 2, 10.0, 4.0);
  FlowMatrix flows(4);
  flows.set(0, 2, 10.0);  // cross-rack
  // Host bound: 10/10 = 1 s. Uplink bound: 10/5 = 2 s.
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *topo), 2.0);
}

TEST(RackGamma, IntraRackUnaffectedByOversubscription) {
  const auto topo = testing::one_spine_leaf_spine(2, 2, 10.0, 8.0);
  FlowMatrix flows(4);
  flows.set(0, 1, 10.0);  // same rack
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *topo), 1.0);
}

TEST(RackGamma, AggregatesUplinkLoadAcrossHosts) {
  // Both hosts of rack 0 send 10 to rack 1: uplink-out of rack 0 carries 20.
  const auto topo = testing::one_spine_leaf_spine(2, 2, 10.0, 1.0);  // 20
  FlowMatrix flows(4);
  flows.set(0, 2, 10.0);
  flows.set(1, 3, 10.0);
  // Hosts: 10/10 = 1 s. Uplink out rack0: 20/20 = 1 s. Tie at 1.
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *topo), 1.0);
  // With oversubscription 2 the uplink halves: bound doubles.
  const auto oversub = testing::one_spine_leaf_spine(2, 2, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *oversub), 2.0);
}

TEST(RackGamma, FullBisectionSingleRackMatchesFlatFabric) {
  const auto topo = testing::one_spine_leaf_spine(1, 4, 10.0, 1.0);
  const Fabric flat(4, 10.0);
  FlowMatrix flows(4);
  flows.set(0, 1, 30.0);
  flows.set(2, 3, 10.0);
  flows.set(1, 2, 5.0);
  EXPECT_DOUBLE_EQ(gamma_bound(flows, *topo), gamma_bound(flows, flat));
}

TEST(RackSimulator, MaddMatchesRackGamma) {
  const auto topo = testing::one_spine_leaf_spine(3, 3, 10.0, 3.0);
  FlowMatrix flows(9);
  // A mix of intra- and cross-rack flows.
  flows.set(0, 1, 40.0);
  flows.set(0, 4, 25.0);
  flows.set(2, 8, 30.0);
  flows.set(5, 3, 15.0);
  flows.set(7, 6, 20.0);
  const double gamma = gamma_bound(flows, *topo);
  Simulator sim(topo, make_allocator("madd"));
  sim.add_coflow(CoflowSpec("c", 0.0, std::move(flows)));
  const SimReport r = sim.run();
  EXPECT_NEAR(r.coflows[0].cct(), gamma, 1e-9 * gamma);
}

TEST(RackSimulator, FairSharingRespectsUplinkCapacity) {
  const auto topo = testing::one_spine_leaf_spine(2, 2, 10.0, 4.0);
  // Two cross-rack flows share the rack-0 uplink (cap 5).
  FlowMatrix flows(4);
  flows.set(0, 2, 50.0);
  flows.set(1, 3, 50.0);
  Simulator sim(topo, make_allocator("fair"));
  sim.add_coflow(CoflowSpec("c", 0.0, std::move(flows)));
  const SimReport r = sim.run();
  // Each flow gets 2.5 through the uplink: 50/2.5 = 20 s.
  EXPECT_NEAR(r.coflows[0].cct(), 20.0, 1e-9);
}

TEST(RackSimulator, SimulatorRejectsNullNetwork) {
  EXPECT_THROW(Simulator(nullptr, make_allocator("madd")),
               std::invalid_argument);
}

// --- the src != dst contract (satellite fix) ---------------------------

TEST(AppendLinksContract, IntraRackShortCircuitIsDistinctFromSelfFlow) {
  // The valid short-circuit: src != dst in the SAME rack skips the switch
  // layer on every two-tier topology.
  const auto rack = testing::one_spine_leaf_spine(2, 2, 10.0, 2.0);
  EXPECT_EQ(rack->links_of(0, 1),
            (std::vector<Network::LinkId>{0, 4 + 1}));
  const auto topo = Topology::leaf_spine(2, 2, 2, 10.0, 2.0);
  const RoutedTopology routed(topo, route_ecmp(*topo));
  EXPECT_EQ(routed.links_of(0, 1),
            (std::vector<Network::LinkId>{0, 4 + 1}));

  // The invalid self-flow now dies under a debug assert on every topology
  // (release builds keep asserts compiled out; the routed topology then
  // throws — its route table has no entry for the diagonal).
#ifndef NDEBUG
  std::vector<Network::LinkId> out;
  EXPECT_DEATH(rack->append_links(1, 1, out), "src != dst");
  EXPECT_DEATH(Fabric(4, 10.0).append_links(2, 2, out), "src != dst");
  EXPECT_DEATH(routed.append_links(3, 3, out), "src != dst");
#else
  std::vector<Network::LinkId> out;
  EXPECT_THROW(routed.append_links(3, 3, out), std::out_of_range);
#endif
}

// --- TopologySpec parsing ----------------------------------------------

TEST(TopologySpec, ParsesAndRoundTrips) {
  const auto ls =
      TopologySpec::parse("leafspine:racks=32,hosts=16,spines=4,oversub=4");
  EXPECT_EQ(ls.kind, TopologyKind::kLeafSpine);
  EXPECT_EQ(ls.racks, 32u);
  EXPECT_EQ(ls.hosts, 16u);
  EXPECT_EQ(ls.spines, 4u);
  EXPECT_DOUBLE_EQ(ls.oversub, 4.0);
  EXPECT_EQ(ls.node_count(), 512u);
  EXPECT_EQ(TopologySpec::parse(ls.to_string()).to_string(), ls.to_string());

  const auto ft = TopologySpec::parse("fattree:k=8,core-scale=2");
  EXPECT_EQ(ft.kind, TopologyKind::kFatTree);
  EXPECT_EQ(ft.fat_k, 8u);
  EXPECT_DOUBLE_EQ(ft.core_scale, 2.0);
  EXPECT_EQ(ft.node_count(), 128u);

  const auto wx = TopologySpec::parse("waxman:nodes=24,routers=8,seed=7,paths=4");
  EXPECT_EQ(wx.kind, TopologyKind::kIrregular);
  EXPECT_EQ(wx.nodes, 24u);
  EXPECT_EQ(wx.waxman.routers, 8u);
  EXPECT_EQ(wx.seed, 7u);
  EXPECT_EQ(wx.waxman.route_k, 4u);
  EXPECT_EQ(wx.node_count(), 24u);

  // Bare kind uses the defaults.
  EXPECT_EQ(TopologySpec::parse("leafspine").racks, 4u);

  EXPECT_THROW(TopologySpec::parse("torus:k=3"), std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:racks=abc"),
               std::invalid_argument);
  EXPECT_THROW(TopologySpec::parse("leafspine:racks"), std::invalid_argument);
}

TEST(TopologySpec, MakeTopologyDispatches) {
  const auto ls = make_topology(TopologySpec::parse("leafspine:racks=3,hosts=2"));
  EXPECT_EQ(ls->kind(), TopologyKind::kLeafSpine);
  EXPECT_EQ(ls->nodes(), 6u);
  const auto ft = make_topology(TopologySpec::parse("fattree:k=4"));
  EXPECT_EQ(ft->kind(), TopologyKind::kFatTree);
  EXPECT_EQ(ft->nodes(), 16u);
  const auto wx = make_topology(TopologySpec::parse("waxman:nodes=8,routers=3"));
  EXPECT_EQ(wx->kind(), TopologyKind::kIrregular);
  EXPECT_EQ(wx->nodes(), 8u);
}

}  // namespace
}  // namespace ccf::net
