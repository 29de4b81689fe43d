// Determinism properties of the ordering schedulers (sched/ordering.hpp).
// The ordering layer sits in front of the drain kernels, so any
// nondeterminism here (tie-breaks falling on pointer order, a reduction
// whose result depends on thread interleaving) silently breaks the Engine's
// reproducible-drain contract. The suite pins:
//   * sincronia_order / lp_order are pure functions: repeated calls on the
//     same problem return the identical permutation and bit-identical dual;
//   * simulations through the registered ordering allocators are
//     bit-identical across runs and across parallel_advance_threshold
//     settings (1 forces the util::parallel fan-out on every epoch, the
//     default keeps small epochs sequential);
//   * Engine drains with an ordering allocator are identical across
//     placement thread counts.
// Runs under the tsan_smoke label, so the threaded variants execute under
// TSan in the sanitizer CI job.
#include "sched/ordering.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/workload.hpp"
#include "net/fabric.hpp"
#include "net/flow.hpp"
#include "net/simulator.hpp"
#include "testing/names.hpp"
#include "testing/ordering_problems.hpp"
#include "util/rng.hpp"

namespace ccf::sched {
namespace {

bool is_permutation_of_all(const std::vector<std::uint32_t>& order,
                           std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const std::uint32_t c : order) {
    if (c >= n || seen[c]) return false;
    seen[c] = true;
  }
  return true;
}

TEST(OrderingProperty, OrderingsArePureFunctionsOfTheProblem) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const OrderingProblem p = testing::random_ordering_problem(seed, 12, 9);
    std::vector<std::uint32_t> first_sin, first_lp;
    double first_dual = 0.0;
    sincronia_order(p, first_sin, &first_dual);
    lp_order(p, first_lp);
    ASSERT_TRUE(is_permutation_of_all(first_sin, p.coflow_count()));
    ASSERT_TRUE(is_permutation_of_all(first_lp, p.coflow_count()));
    EXPECT_GT(first_dual, 0.0);
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<std::uint32_t> sin, lp;
      double dual = 0.0;
      sincronia_order(p, sin, &dual);
      lp_order(p, lp);
      EXPECT_EQ(sin, first_sin) << "seed " << seed;
      EXPECT_EQ(lp, first_lp) << "seed " << seed;
      EXPECT_EQ(dual, first_dual) << "seed " << seed;  // bit-identical
    }
  }
}

// Random coflows on a flat fabric; arrivals staggered so membership changes
// mid-run and the decorator's order-recompute path is exercised.
std::vector<net::CoflowSpec> random_specs(std::uint64_t seed,
                                          std::size_t nodes,
                                          std::size_t coflows) {
  util::Pcg32 rng(util::derive_seed(seed, 577), 577);
  std::vector<net::CoflowSpec> specs;
  for (std::size_t c = 0; c < coflows; ++c) {
    net::FlowMatrix m(nodes);
    const std::size_t flows = 1 + rng.bounded(5);
    for (std::size_t f = 0; f < flows; ++f) {
      const std::size_t src = rng.bounded(static_cast<std::uint32_t>(nodes));
      std::size_t dst = rng.bounded(static_cast<std::uint32_t>(nodes));
      if (dst == src) dst = (dst + 1) % nodes;
      m.add(src, dst, rng.uniform(1.0, 50.0));
    }
    net::CoflowSpec spec(testing::numbered("c", c),
                         c % 3 == 0 ? 0.0 : rng.uniform(0.0, 5.0),
                         std::move(m));
    spec.weight = rng.uniform(0.25, 4.0);
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<double> completions(const net::SimReport& report) {
  std::vector<double> out;
  for (const auto& c : report.coflows) out.push_back(c.completion);
  return out;
}

TEST(OrderingProperty, SimulationIsBitIdenticalAcrossAdvanceThresholds) {
  for (const char* allocator : {"sincronia", "lp-order"}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::vector<std::vector<double>> runs;
      for (const std::size_t threshold : {std::size_t{1}, std::size_t{1} << 30,
                                          std::size_t{1}}) {
        net::SimConfig config;
        config.parallel_advance_threshold = threshold;
        net::Simulator sim(net::Fabric(8, 1.0),
                           make_ordered_allocator(allocator), config);
        for (auto& spec : random_specs(seed, 8, 14)) {
          sim.add_coflow(std::move(spec));
        }
        runs.push_back(completions(sim.run()));
      }
      // threshold=1 forces the parallel advance on every epoch; the huge
      // threshold keeps it sequential; the repeat checks run-to-run
      // stability. All three must agree to the bit.
      EXPECT_EQ(runs[0], runs[1]) << allocator << " seed " << seed;
      EXPECT_EQ(runs[0], runs[2]) << allocator << " seed " << seed;
    }
  }
}

TEST(OrderingProperty, MaxMinDrainIsDeterministicToo) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<std::vector<double>> runs;
    for (int rep = 0; rep < 2; ++rep) {
      net::Simulator sim(
          net::Fabric(6, 1.0),
          make_ordered_allocator("sincronia", OrderedDrain::kMaxMin));
      for (auto& spec : random_specs(seed, 6, 10)) {
        sim.add_coflow(std::move(spec));
      }
      runs.push_back(completions(sim.run()));
    }
    EXPECT_EQ(runs[0], runs[1]) << "seed " << seed;
  }
}

TEST(OrderingProperty, EngineDrainIsIdenticalAcrossPlacementThreads) {
  data::WorkloadSpec wspec;
  wspec.nodes = 4;
  wspec.partitions = 8;
  wspec.customer_bytes = 4e6;
  wspec.orders_bytes = 4e7;
  wspec.zipf_theta = 0.8;
  wspec.skew = 0.3;
  auto drain_ccts = [&](std::size_t threads) {
    core::EngineOptions opts;
    opts.nodes = 4;
    opts.allocator = "sincronia";
    opts.placement_threads = threads;
    core::Engine engine(opts);
    for (std::uint64_t q = 0; q < 6; ++q) {
      wspec.seed = 100 + q;
      core::QuerySpec query(testing::numbered("q", q),
                            data::generate_workload(wspec));
      query.weight = static_cast<double>(1 + q % 3);
      engine.submit(std::move(query));
    }
    const core::EngineReport epoch = engine.drain();
    std::vector<double> ccts;
    for (const auto& run : epoch.queries) ccts.push_back(run.cct_seconds);
    ccts.push_back(epoch.makespan);
    return ccts;
  };
  const std::vector<double> one = drain_ccts(1);
  const std::vector<double> four = drain_ccts(4);
  const std::vector<double> hw = drain_ccts(0);  // hardware concurrency
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, hw);
}

}  // namespace
}  // namespace ccf::sched
