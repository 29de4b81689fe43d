// Reference-vs-incremental engine equivalence (DESIGN.md §3): both engine
// modes must produce the same schedule — identical event counts, per-coflow
// completions (1e-9 relative), byte totals, and admission decisions — across
// allocators, topologies, online arrivals, per-flow start offsets, deadline
// rejections, and zero-flow coflows. The reference engine recomputes
// everything per event through the legacy AoS allocator entry point; the
// incremental engine keeps allocator state across events, so any staleness
// bug in its caches shows up here as a divergence.
// Every run goes through the invariant-checking decorator
// (tests/testing/invariants.hpp), so capacity, conservation and min_dt-hint
// violations fail here even when both engines agree with each other.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "net/simulator.hpp"
#include "testing/invariants.hpp"
#include "testing/leaf_spine.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

FlowMatrix random_matrix(std::size_t n, util::Pcg32& rng, double density,
                         double max_volume) {
  FlowMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        m.set(i, j, rng.uniform(1.0, max_volume));
      }
    }
  }
  return m;
}

/// Workload exercising every engine edge: staggered arrivals, per-flow start
/// offsets, tight deadlines (rejections under varys-edf), and an empty
/// coflow.
std::vector<CoflowSpec> make_workload(std::size_t nodes, std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 7), 7);
  std::vector<CoflowSpec> specs;
  for (std::size_t c = 0; c < 8; ++c) {
    CoflowSpec spec("c" + std::to_string(c), rng.uniform(0.0, 3.0),
                    random_matrix(nodes, rng, 0.4, 200.0));
    if (c % 3 == 1) {
      FlowMatrix offsets(nodes);
      for (std::size_t i = 0; i < nodes; ++i) {
        for (std::size_t j = 0; j < nodes; ++j) {
          if (spec.flows.volume(i, j) > 0.0) {
            offsets.set(i, j, rng.uniform(0.0, 0.5));
          }
        }
      }
      spec.start_offsets = std::move(offsets);
    }
    // A mix of generous and hopeless deadlines so varys-edf both admits and
    // rejects; inert under the other allocators.
    if (c % 4 == 2) spec.deadline = rng.uniform(1e-6, 2e-5);
    if (c % 4 == 0) spec.deadline = 1e3;
    specs.push_back(std::move(spec));
  }
  specs.push_back(CoflowSpec("empty", 1.0, FlowMatrix(nodes)));
  return specs;
}

SimReport run_engine(const std::vector<CoflowSpec>& specs, bool rack,
                     const std::string& allocator, SimEngine engine,
                     std::size_t parallel_threshold, std::uint64_t fault_seed) {
  SimConfig config;
  config.engine = engine;
  config.parallel_advance_threshold = parallel_threshold;
  auto network = rack
                     ? std::shared_ptr<const Network>(
                           testing::one_spine_leaf_spine(3, 2, 10.0))
                     : std::shared_ptr<const Network>(new Fabric(6, 10.0));
  Simulator sim(std::move(network), testing::make_invariant_checked(allocator),
                config);
  if (fault_seed != 0) {
    // Seed-derived random faults sized to land mid-run (volumes <= 200 B at
    // 10 B/s ports put completions in the tens of seconds).
    util::Pcg32 rng(util::derive_seed(fault_seed, 11), 11);
    RandomFaultOptions opts;
    opts.horizon = 8.0;
    opts.outage = 3.0;
    sim.set_faults(FaultSchedule::random(sim.network(), opts, rng));
  }
  for (const auto& spec : specs) sim.add_coflow(spec);
  return sim.run();
}

void expect_equivalent(const SimReport& ref, const SimReport& inc) {
  ASSERT_EQ(ref.events, inc.events);
  EXPECT_NEAR(ref.makespan, inc.makespan, 1e-9 * (1.0 + ref.makespan));
  EXPECT_NEAR(ref.total_bytes, inc.total_bytes,
              1e-9 * (1.0 + ref.total_bytes));
  ASSERT_EQ(ref.coflows.size(), inc.coflows.size());
  for (std::size_t c = 0; c < ref.coflows.size(); ++c) {
    EXPECT_EQ(ref.coflows[c].rejected, inc.coflows[c].rejected)
        << ref.coflows[c].name;
    EXPECT_NEAR(ref.coflows[c].completion, inc.coflows[c].completion,
                1e-9 * (1.0 + ref.coflows[c].completion))
        << ref.coflows[c].name;
    EXPECT_NEAR(ref.coflows[c].bytes, inc.coflows[c].bytes,
                1e-9 * (1.0 + ref.coflows[c].bytes))
        << ref.coflows[c].name;
  }
}

using Combo = std::tuple<std::uint64_t, std::string, bool>;

class EngineEquivalence : public ::testing::TestWithParam<Combo> {};

TEST_P(EngineEquivalence, ReferenceAndIncrementalAgree) {
  const auto& [seed, allocator, rack] = GetParam();
  const auto specs = make_workload(6, seed);
  const auto ref = run_engine(specs, rack, allocator, SimEngine::kReference,
                              SimConfig{}.parallel_advance_threshold, 0);
  const auto inc = run_engine(specs, rack, allocator, SimEngine::kIncremental,
                              SimConfig{}.parallel_advance_threshold, 0);
  expect_equivalent(ref, inc);
}

TEST_P(EngineEquivalence, AgreeWithParallelAdvancePath) {
  // Threshold low enough that every epoch takes the chunked parallel
  // advance/compaction path in both engines.
  const auto& [seed, allocator, rack] = GetParam();
  const auto specs = make_workload(6, seed);
  const auto ref =
      run_engine(specs, rack, allocator, SimEngine::kReference, 8, 0);
  const auto inc =
      run_engine(specs, rack, allocator, SimEngine::kIncremental, 8, 0);
  expect_equivalent(ref, inc);
}

TEST_P(EngineEquivalence, AgreeUnderRandomFaults) {
  // Same workload under a seed-derived fault schedule (link degradations,
  // hard one-sided port cuts, a straggler — all restored): the incremental
  // engine's cached allocator state must survive mid-run capacity changes.
  const auto& [seed, allocator, rack] = GetParam();
  const auto specs = make_workload(6, seed);
  const auto ref = run_engine(specs, rack, allocator, SimEngine::kReference,
                              SimConfig{}.parallel_advance_threshold, seed);
  const auto inc = run_engine(specs, rack, allocator, SimEngine::kIncremental,
                              SimConfig{}.parallel_advance_threshold, seed);
  expect_equivalent(ref, inc);
  EXPECT_GT(inc.fault_events, 0u);
  EXPECT_EQ(ref.fault_events, inc.fault_events);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Values("fair", "madd", "varys", "aalo",
                                         "varys-edf"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string alloc = std::get<1>(info.param);
      for (char& ch : alloc) {
        if (ch == '-') ch = '_';  // gtest names must be identifiers
      }
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + alloc +
             "_" + (std::get<2>(info.param) ? "rack" : "fabric");
    });

}  // namespace
}  // namespace ccf::net
