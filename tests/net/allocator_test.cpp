#include "net/allocator.hpp"

#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ccf::net {
namespace {

Flow make_flow(std::uint32_t src, std::uint32_t dst, double vol,
               std::uint32_t coflow = 0) {
  Flow f;
  f.src = src;
  f.dst = dst;
  f.volume = f.remaining = vol;
  f.coflow = coflow;
  return f;
}

std::vector<CoflowState> started_states(std::size_t count) {
  std::vector<CoflowState> states(count);
  for (std::size_t c = 0; c < count; ++c) {
    states[c].id = static_cast<std::uint32_t>(c);
    states[c].started = true;
  }
  return states;
}

TEST(MakeAllocator, AllKindsAndNames) {
  EXPECT_EQ(allocator_names().size(), 5u);
  for (const auto name : allocator_names()) {
    EXPECT_EQ(make_allocator(std::string(name))->name(), name);
  }
  EXPECT_EQ(make_allocator("fair")->name(), "fair");
  EXPECT_THROW(make_allocator("bogus"), std::invalid_argument);
}

TEST(FairSharing, LoneFlowGetsFullPort) {
  auto alloc = make_allocator("fair");
  std::vector<Flow> flows = {make_flow(0, 1, 100.0)};
  auto states = started_states(1);
  alloc->allocate(flows, states, Fabric(2, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 10.0);
}

TEST(FairSharing, TwoFlowsShareEgressEqually) {
  auto alloc = make_allocator("fair");
  std::vector<Flow> flows = {make_flow(0, 1, 100.0), make_flow(0, 2, 100.0)};
  auto states = started_states(1);
  alloc->allocate(flows, states, Fabric(3, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);
}

TEST(FairSharing, MaxMinGivesLeftoverToUnbottleneckedFlow) {
  // Flows A(0->2), B(1->2) share ingress 2; flow C(1->3) shares egress 1
  // with B. Ingress 2 is the bottleneck: A and B get 5 each; C then gets
  // the remaining egress-1 capacity: 10 - 5 = 5... all 5 here. Use asymmetric
  // capacities to make it interesting.
  auto alloc = make_allocator("fair");
  std::vector<Flow> flows = {make_flow(0, 2, 100.0), make_flow(1, 2, 100.0),
                             make_flow(1, 3, 100.0)};
  auto states = started_states(1);
  const Fabric fabric({10.0, 10.0, 10.0, 10.0}, {10.0, 10.0, 4.0, 10.0});
  alloc->allocate(flows, states, fabric, 0.0);
  // Ingress of node 2 (cap 4) shared: A=B=2. C then gets egress-1 leftover 8.
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[2].rate, 8.0);
}

TEST(FairSharing, RespectsAllPortCapacities) {
  auto alloc = make_allocator("fair");
  std::vector<Flow> flows;
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = 0; j < 4; ++j) {
      if (i != j) flows.push_back(make_flow(i, j, 50.0));
    }
  }
  auto states = started_states(1);
  const Fabric fabric(4, 9.0);
  alloc->allocate(flows, states, fabric, 0.0);
  std::vector<double> egress(4, 0.0), ingress(4, 0.0);
  for (const Flow& f : flows) {
    EXPECT_GT(f.rate, 0.0);
    egress[f.src] += f.rate;
    ingress[f.dst] += f.rate;
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(egress[i], 9.0 + 1e-9);
    EXPECT_LE(ingress[i], 9.0 + 1e-9);
  }
}

TEST(Madd, SingleCoflowFinishesTogetherAtGamma) {
  auto alloc = make_allocator("madd");
  // Egress 0 carries 12 total (bottleneck at cap 2 -> gamma 6).
  std::vector<Flow> flows = {make_flow(0, 1, 8.0), make_flow(0, 2, 4.0),
                             make_flow(1, 2, 2.0)};
  auto states = started_states(1);
  alloc->allocate(flows, states, Fabric(3, 2.0), 0.0);
  const double gamma = 6.0;
  for (const Flow& f : flows) {
    EXPECT_NEAR(f.remaining / f.rate, gamma, 1e-9)
        << "flow " << f.src << "->" << f.dst;
  }
}

TEST(Madd, FifoBackfillsSecondCoflow) {
  auto alloc = make_allocator("madd");
  // Coflow 0 (arrival 0) uses half of egress 0; coflow 1 backfills the rest.
  std::vector<Flow> flows = {make_flow(0, 1, 10.0, 0), make_flow(0, 2, 10.0, 1)};
  auto states = started_states(2);
  states[0].arrival = 0.0;
  states[1].arrival = 1.0;
  alloc->allocate(flows, states, Fabric(3, 4.0), 0.0);
  // Coflow 0 alone: gamma = 10/4 -> rate 4 (full egress). Coflow 1 starved.
  EXPECT_DOUBLE_EQ(flows[0].rate, 4.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 0.0);
}

TEST(Madd, BackfillUsesDisjointPorts) {
  auto alloc = make_allocator("madd");
  std::vector<Flow> flows = {make_flow(0, 1, 10.0, 0), make_flow(2, 3, 6.0, 1)};
  auto states = started_states(2);
  alloc->allocate(flows, states, Fabric(4, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 2.0);  // disjoint ports: full rate backfill
}

TEST(Varys, SmallestBottleneckGoesFirst) {
  auto alloc = make_allocator("varys");
  // Both coflows contend on egress 0. Coflow 1 is smaller -> scheduled first
  // despite the higher id/arrival.
  std::vector<Flow> flows = {make_flow(0, 1, 100.0, 0), make_flow(0, 2, 10.0, 1)};
  auto states = started_states(2);
  states[1].arrival = 0.5;
  alloc->allocate(flows, states, Fabric(3, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 5.0);  // winner takes the whole port
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
}

TEST(Varys, TiesFallBackToArrival) {
  auto alloc = make_allocator("varys");
  std::vector<Flow> flows = {make_flow(0, 1, 10.0, 0), make_flow(0, 2, 10.0, 1)};
  auto states = started_states(2);
  states[0].arrival = 0.0;
  states[1].arrival = 1.0;
  alloc->allocate(flows, states, Fabric(3, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 5.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 0.0);
}

TEST(Aalo, FewerBytesSentMeansHigherPriority) {
  auto alloc = make_allocator("aalo");
  std::vector<Flow> flows = {make_flow(0, 1, 50e6, 0), make_flow(0, 2, 50e6, 1)};
  auto states = started_states(2);
  states[0].bytes_sent = 200e6;  // queue 2
  states[1].bytes_sent = 1e6;    // queue 0 -> priority
  alloc->allocate(flows, states, Fabric(3, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
}

TEST(Aalo, SameQueueSharesByArrival) {
  auto alloc = make_allocator("aalo");
  std::vector<Flow> flows = {make_flow(0, 1, 1e6, 0), make_flow(0, 2, 1e6, 1)};
  auto states = started_states(2);
  states[0].arrival = 1.0;
  states[1].arrival = 0.0;  // same queue (0 bytes sent), earlier arrival wins
  alloc->allocate(flows, states, Fabric(3, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 10.0);
  EXPECT_DOUBLE_EQ(flows[0].rate, 0.0);
}

TEST(MaddSequential, ExhaustedPortStarvesLaterCoflowOnly) {
  auto alloc = make_allocator("madd");
  std::vector<Flow> flows = {make_flow(0, 1, 10.0, 0), make_flow(2, 1, 10.0, 1)};
  auto states = started_states(2);
  alloc->allocate(flows, states, Fabric(3, 3.0), 0.0);
  // Coflow 0 saturates ingress 1; coflow 1 gets nothing this epoch.
  EXPECT_DOUBLE_EQ(flows[0].rate, 3.0);
  EXPECT_DOUBLE_EQ(flows[1].rate, 0.0);
}

}  // namespace
}  // namespace ccf::net
