// The ratio-verifying comparison bench for the ordering schedulers — the
// executable form of Sincronia's approximation guarantee.
//
// For every swept instance (topology x workload family x seed, all arrivals
// at 0 so the lower bounds apply) the test computes the certificate
//   LB = max(dual, isolation, per-port WSPT)
// from sched::ordering_lower_bound and simulates the instance under every
// registered rate allocator. Soundness cuts both ways:
//   * LB <= achieved for EVERY policy. Each component of LB is a valid
//     lower bound on the optimal weighted CCT (weak LP duality for the
//     dual, per-coflow isolation, single-machine WSPT per port), so any
//     simulated schedule falling below it means either a lower-bound bug or
//     a simulator that moves bytes faster than the fabric allows.
//   * achieved <= 4 x dual for "sincronia". The primal–dual analysis bounds
//     the BSSI ordering composed with any work-conserving order-respecting
//     rate allocation by 4 x the dual objective. Since dual <= LB, this is
//     the TIGHTER form of the guarantee — asserting against 4 x dual implies
//     the 4 x LB form and catches more.
// The classic policies (varys, aalo, madd, fair) get the lower-bound assert
// only; their ratios are reported for comparison, not bounded — Varys's
// SEBF has no constant-factor guarantee and instances exist where it loses.
#include "sched/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "net/fabric.hpp"
#include "net/flow.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "testing/leaf_spine.hpp"
#include "testing/names.hpp"
#include "util/rng.hpp"

namespace ccf::sched {
namespace {

struct Instance {
  std::string label;
  std::shared_ptr<const net::Network> network;
  std::vector<net::CoflowSpec> coflows;  // all arrivals 0, varied weights
};

// Workload families. All volumes are O(1..50) bytes on unit-rate ports so
// CCTs are O(seconds) and tolerances are meaningful.
enum class Family { kUniform, kIncast, kMixed };

const char* family_name(Family f) {
  switch (f) {
    case Family::kUniform: return "uniform";
    case Family::kIncast: return "incast";
    case Family::kMixed: return "mixed";
  }
  return "?";
}

net::CoflowSpec make_coflow(util::Pcg32& rng, std::size_t nodes, Family family,
                            std::size_t index) {
  net::FlowMatrix m(nodes);
  const auto pick = [&](std::size_t avoid) {
    std::size_t node = rng.bounded(static_cast<std::uint32_t>(nodes));
    if (node == avoid) node = (node + 1) % nodes;
    return node;
  };
  switch (family) {
    case Family::kUniform: {
      const std::size_t flows = 1 + rng.bounded(6);
      for (std::size_t f = 0; f < flows; ++f) {
        const std::size_t src = rng.bounded(static_cast<std::uint32_t>(nodes));
        m.add(src, pick(src), rng.uniform(1.0, 40.0));
      }
      break;
    }
    case Family::kIncast: {
      // Everyone sends to one hot receiver — the port-contended regime the
      // bottleneck charging argument is about.
      const std::size_t dst = rng.bounded(static_cast<std::uint32_t>(nodes));
      const std::size_t senders = 2 + rng.bounded(4);
      for (std::size_t s = 0; s < senders; ++s) {
        m.add(pick(dst), dst, rng.uniform(2.0, 30.0));
      }
      break;
    }
    case Family::kMixed: {
      if (index % 2 == 0) {
        // Thin coflow: one short flow (the kind an unweighted FIFO hurts).
        const std::size_t src = rng.bounded(static_cast<std::uint32_t>(nodes));
        m.add(src, pick(src), rng.uniform(1.0, 5.0));
      } else {
        // Fat shuffle touching most ports.
        for (std::size_t src = 0; src < nodes; ++src) {
          if (rng.uniform01() < 0.7) m.add(src, pick(src),
                                           rng.uniform(5.0, 50.0));
        }
      }
      break;
    }
  }
  net::CoflowSpec spec(testing::numbered("c", index), 0.0, std::move(m));
  spec.weight = rng.uniform(0.25, 4.0);
  return spec;
}

std::vector<Instance> sweep_instances() {
  std::vector<Instance> out;
  struct Topo {
    std::string label;
    std::shared_ptr<const net::Network> network;
    std::size_t nodes;
  };
  // A flat 6-port big switch and an oversubscribed 3x2 rack fabric (the
  // uplinks become the bottleneck ports the dual charges).
  std::vector<Topo> topologies;
  topologies.push_back({"flat6", std::make_shared<net::Fabric>(6, 1.0), 6});
  topologies.push_back(
      {"rack3x2", testing::one_spine_leaf_spine(3, 2, 1.0, 2.0), 6});
  for (const Topo& topo : topologies) {
    for (const Family family : {Family::kUniform, Family::kIncast,
                                Family::kMixed}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        util::Pcg32 rng(util::derive_seed(seed, 311), 311);
        Instance inst;
        inst.label = topo.label + "/" + family_name(family) + "/s" +
                     std::to_string(seed);
        inst.network = topo.network;
        const std::size_t coflows = 6 + rng.bounded(6);
        for (std::size_t c = 0; c < coflows; ++c) {
          inst.coflows.push_back(make_coflow(rng, topo.nodes, family, c));
        }
        out.push_back(std::move(inst));
      }
    }
  }
  return out;
}

OrderingProblem problem_of(const Instance& inst) {
  OrderingProblem p;
  std::vector<double> caps(inst.network->link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = inst.network->link_capacity(static_cast<net::Network::LinkId>(l));
  }
  p.reset(caps);
  for (const net::CoflowSpec& spec : inst.coflows) {
    p.add_coflow(spec.weight, spec.flows, *inst.network);
  }
  return p;
}

double simulate_wcct(const Instance& inst, const std::string& allocator) {
  net::Simulator sim(inst.network, core::registry::make_allocator(allocator));
  for (const net::CoflowSpec& spec : inst.coflows) sim.add_coflow(spec);
  const net::SimReport report = sim.run();
  return net::total_weighted_cct(report);
}

// The simulator truncates a flow when its remaining volume drops below
// completion_epsilon bytes, so a simulated CCT can sit a hair below the
// analytic one; the relative slack covers that, nothing more.
constexpr double kLbSlack = 1e-6;

TEST(OrderingRatio, EveryPolicyRespectsTheLowerBoundAndSincroniaIsWithin4x) {
  const std::vector<std::string> policies = {"sincronia", "lp-order", "varys",
                                             "aalo",      "madd",     "fair"};
  struct Agg {
    double sum_ratio = 0.0;
    double max_ratio = 0.0;
    int count = 0;
  };
  std::map<std::string, Agg> by_policy;
  double sincronia_worst_vs_dual = 0.0;

  for (const Instance& inst : sweep_instances()) {
    const OrderingProblem problem = problem_of(inst);
    const OrderingLowerBound lb = ordering_lower_bound(problem);
    ASSERT_GT(lb.dual, 0.0) << inst.label;
    ASSERT_GE(lb.best(), lb.dual) << inst.label;

    for (const std::string& policy : policies) {
      const double wcct = simulate_wcct(inst, policy);
      // Soundness: no schedule beats a valid lower bound on OPT.
      EXPECT_GE(wcct, lb.best() * (1.0 - kLbSlack))
          << inst.label << " policy=" << policy << " wcct=" << wcct
          << " lb=" << lb.best();
      const double ratio = wcct / lb.best();
      Agg& agg = by_policy[policy];
      agg.sum_ratio += ratio;
      agg.max_ratio = std::max(agg.max_ratio, ratio);
      agg.count += 1;

      if (policy == "sincronia") {
        // The guarantee: BSSI + an order-respecting allocation is within
        // 4x of the dual on every instance, not just on average.
        const double vs_dual = wcct / lb.dual;
        EXPECT_LE(vs_dual, 4.0 * (1.0 + 1e-9))
            << inst.label << " wcct=" << wcct << " dual=" << lb.dual;
        sincronia_worst_vs_dual = std::max(sincronia_worst_vs_dual, vs_dual);
      }
    }
  }

  // Per-policy comparison table (mean / worst ratio vs the certificate).
  std::printf("\n  %-10s %10s %10s  (over %d instances)\n", "policy",
              "mean", "worst", by_policy.begin()->second.count);
  for (const auto& [policy, agg] : by_policy) {
    const double mean = agg.sum_ratio / agg.count;
    std::printf("  %-10s %10.4f %10.4f\n", policy.c_str(), mean,
                agg.max_ratio);
    RecordProperty("mean_ratio_" + policy, std::to_string(mean));
    RecordProperty("worst_ratio_" + policy, std::to_string(agg.max_ratio));
  }
  std::printf("  sincronia worst vs dual: %.4f (guarantee: 4)\n\n",
              sincronia_worst_vs_dual);
  RecordProperty("sincronia_worst_vs_dual",
                 std::to_string(sincronia_worst_vs_dual));

  // The sweep must have exercised every policy on every instance.
  for (const std::string& policy : policies) {
    EXPECT_EQ(by_policy[policy].count, 2 * 3 * 3) << policy;
  }
}

TEST(OrderingRatio, GuaranteeHoldsUnderAdversarialWeights) {
  // Extreme weight spreads (1e-3 .. 1e3) stress the weight-scaling step of
  // the primal–dual recursion; the guarantee is weight-oblivious.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 997), 997);
    Instance inst;
    inst.label = "adversarial/s" + std::to_string(seed);
    inst.network = std::make_shared<net::Fabric>(4, 1.0);
    for (std::size_t c = 0; c < 8; ++c) {
      net::CoflowSpec spec = make_coflow(rng, 4, Family::kUniform, c);
      // Log-uniform weights across six decades.
      spec.weight = std::pow(10.0, rng.uniform(-3.0, 3.0));
      inst.coflows.push_back(std::move(spec));
    }
    const OrderingLowerBound lb = ordering_lower_bound(problem_of(inst));
    const double wcct = simulate_wcct(inst, "sincronia");
    EXPECT_GE(wcct, lb.best() * (1.0 - kLbSlack)) << inst.label;
    EXPECT_LE(wcct, 4.0 * lb.dual * (1.0 + 1e-9))
        << inst.label << " wcct=" << wcct << " dual=" << lb.dual;
  }
}

TEST(OrderingRatio, MaxMinDrainAlsoRespectsTheBounds) {
  // The alternative drain kernel is still order-respecting, so the same
  // two-sided check applies.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 499), 499);
    Instance inst;
    inst.network = std::make_shared<net::Fabric>(5, 1.0);
    for (std::size_t c = 0; c < 7; ++c) {
      inst.coflows.push_back(make_coflow(rng, 5, Family::kIncast, c));
    }
    const OrderingLowerBound lb = ordering_lower_bound(problem_of(inst));
    net::Simulator sim(
        inst.network,
        make_ordered_allocator("sincronia", OrderedDrain::kMaxMin));
    for (const net::CoflowSpec& spec : inst.coflows) sim.add_coflow(spec);
    const double wcct = net::total_weighted_cct(sim.run());
    EXPECT_GE(wcct, lb.best() * (1.0 - kLbSlack)) << "seed " << seed;
    EXPECT_LE(wcct, 4.0 * lb.dual * (1.0 + 1e-9))
        << "seed " << seed << " wcct=" << wcct << " dual=" << lb.dual;
  }
}

}  // namespace
}  // namespace ccf::sched
