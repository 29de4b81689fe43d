// Pins the Engine's two load-bearing guarantees (core/engine.hpp):
//
//  1. Serial equivalence — an Engine fed queries one drain at a time
//     reproduces run_pipeline's RunReport bit-for-bit, for every placement
//     scheduler x rate allocator pair the registry knows.
//  2. Concurrent determinism — a drain with many pending queries placed on
//     the parallel fan-out yields bit-identical reports run after run,
//     regardless of the worker-thread count. The suite carries the
//     tsan_smoke label so the sanitizer build races the fan-out for real.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "testing/names.hpp"

namespace ccf::core {
namespace {

// Small enough that the "exact" branch-and-bound scheduler stays fast, big
// enough that placements differ across schedulers.
data::Workload tiny_workload(std::uint64_t seed) {
  data::WorkloadSpec spec;
  spec.nodes = 4;
  spec.partitions = 8;
  spec.customer_bytes = 4e6;
  spec.orders_bytes = 4e7;
  spec.zipf_theta = 0.8;
  spec.skew = 0.3;
  spec.seed = seed;
  return data::generate_workload(spec);
}

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names;
  for (const auto name : registry::scheduler_names()) names.emplace_back(name);
  return names;
}

std::vector<std::string> all_allocator_names() {
  std::vector<std::string> names;
  for (const auto name : registry::allocator_names()) names.emplace_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Serial equivalence: scheduler x allocator.

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EngineEquivalence, SerialSessionMatchesRunPipeline) {
  const auto& [scheduler, allocator] = GetParam();

  PipelineOptions popts;
  popts.scheduler = scheduler;
  popts.allocator = allocator;

  EngineOptions eopts;
  eopts.nodes = 4;
  eopts.allocator = allocator;
  Engine engine(eopts);

  // One session, queries fed serially: each drain is a fresh one-query epoch
  // and must equal the corresponding isolated run_pipeline call exactly.
  for (const std::uint64_t seed : {11u, 12u}) {
    const data::Workload w = tiny_workload(seed);
    const RunReport expected = run_pipeline(w, popts);

    QuerySpec query(scheduler, data::Workload(w), scheduler);
    engine.submit(std::move(query));
    EngineReport epoch = engine.drain();

    ASSERT_EQ(epoch.queries.size(), 1u);
    const RunReport& got = epoch.queries.front();
    EXPECT_EQ(got.scheduler, expected.scheduler);
    EXPECT_EQ(got.skew_handled, expected.skew_handled);
    EXPECT_EQ(got.flow_count, expected.flow_count);
    // Bit-identical, not approximately equal: the same stage code ran on the
    // same inputs and the same single-coflow simulation.
    EXPECT_EQ(got.traffic_bytes, expected.traffic_bytes);
    EXPECT_EQ(got.makespan_bytes, expected.makespan_bytes);
    EXPECT_EQ(got.gamma_seconds, expected.gamma_seconds);
    EXPECT_EQ(got.cct_seconds, expected.cct_seconds);
    EXPECT_EQ(epoch.sim.events, expected.sim.events);
    EXPECT_EQ(epoch.sim.total_bytes, expected.sim.total_bytes);
    EXPECT_EQ(epoch.makespan, expected.sim.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, EngineEquivalence,
    ::testing::Combine(::testing::ValuesIn(all_scheduler_names()),
                       ::testing::ValuesIn(all_allocator_names())),
    [](const auto& param_info) {
      std::string label =
          std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

// ---------------------------------------------------------------------------
// Concurrent determinism.

EngineReport concurrent_session(std::size_t placement_threads) {
  EngineOptions opts;
  opts.nodes = 4;
  opts.allocator = "madd";
  opts.placement_threads = placement_threads;
  Engine engine(opts);

  const std::vector<std::string> schedulers = all_scheduler_names();
  for (std::size_t q = 0; q < 8; ++q) {
    QuerySpec query("q" + std::to_string(q), tiny_workload(100 + q),
                    schedulers[q % schedulers.size()],
                    0.05 * static_cast<double>(q));
    engine.submit(std::move(query));
  }
  EXPECT_EQ(engine.pending(), 8u);
  return engine.drain();
}

void expect_identical(const EngineReport& a, const EngineReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].scheduler, b.queries[q].scheduler) << q;
    EXPECT_EQ(a.queries[q].traffic_bytes, b.queries[q].traffic_bytes) << q;
    EXPECT_EQ(a.queries[q].makespan_bytes, b.queries[q].makespan_bytes) << q;
    EXPECT_EQ(a.queries[q].gamma_seconds, b.queries[q].gamma_seconds) << q;
    EXPECT_EQ(a.queries[q].cct_seconds, b.queries[q].cct_seconds) << q;
    EXPECT_EQ(a.queries[q].flow_count, b.queries[q].flow_count) << q;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_traffic_bytes, b.total_traffic_bytes);
  EXPECT_EQ(a.sim.events, b.sim.events);
  EXPECT_EQ(a.sim.total_bytes, b.sim.total_bytes);
  ASSERT_EQ(a.sim.coflows.size(), b.sim.coflows.size());
  for (std::size_t c = 0; c < a.sim.coflows.size(); ++c) {
    EXPECT_EQ(a.sim.coflows[c].name, b.sim.coflows[c].name) << c;
    EXPECT_EQ(a.sim.coflows[c].completion, b.sim.coflows[c].completion) << c;
  }
}

TEST(EngineConcurrency, EightQueryDrainIsDeterministic) {
  const EngineReport first = concurrent_session(0);
  ASSERT_EQ(first.queries.size(), 8u);
  EXPECT_EQ(first.sim.coflows.size(), 8u);
  EXPECT_GT(first.makespan, 0.0);
  for (int rep = 0; rep < 3; ++rep) {
    const EngineReport again = concurrent_session(0);
    expect_identical(first, again);
  }
}

TEST(EngineConcurrency, ThreadCountDoesNotChangeTheEpoch) {
  const EngineReport wide = concurrent_session(0);  // hardware concurrency
  for (const std::size_t threads : {1u, 2u, 5u}) {
    const EngineReport narrow = concurrent_session(threads);
    expect_identical(wide, narrow);
  }
}

TEST(EngineConcurrency, ContendingQueriesStretchEachOther) {
  // The shared epoch is an actual contention model: a query's in-session CCT
  // can only be >= its isolated run (MADD work conservation on one fabric).
  const EngineReport epoch = concurrent_session(0);
  PipelineOptions popts;
  const std::vector<std::string> schedulers = all_scheduler_names();
  double isolated_sum = 0.0;
  double shared_sum = 0.0;
  for (std::size_t q = 0; q < 8; ++q) {
    popts.scheduler = schedulers[q % schedulers.size()];
    isolated_sum += run_pipeline(tiny_workload(100 + q), popts).cct_seconds;
    shared_sum += epoch.queries[q].cct_seconds;
  }
  EXPECT_GE(shared_sum, isolated_sum * (1.0 - 1e-6));
}

TEST(EngineConcurrency, ConcurrentSubmittersLoseNoQueries) {
  // submit() is advertised thread-safe (core::Service pushes client
  // submissions at a shard while its driver drains it). Race four
  // submitters against a draining consumer; every submission must land in
  // exactly one epoch.
  EngineOptions opts;
  opts.nodes = 4;
  Engine engine(opts);
  const auto workload =
      std::make_shared<const data::Workload>(tiny_workload(77));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 32;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        engine.submit(QuerySpec(testing::numbered("t", t), workload));
      }
    });
  }
  std::size_t drained = 0;
  while (drained < kThreads * kPerThread) {
    drained += engine.drain().queries.size();
  }
  for (std::thread& s : submitters) s.join();
  drained += engine.drain().queries.size();

  EXPECT_EQ(drained, kThreads * kPerThread);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.queries, kThreads * kPerThread);
  EXPECT_EQ(stats.plan_hits + stats.plan_misses, kThreads * kPerThread);
  EXPECT_EQ(engine.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Session lifecycle and validation.

TEST(Engine, StatsAccumulateAcrossDrains) {
  EngineOptions opts;
  opts.nodes = 4;
  Engine engine(opts);
  engine.submit(QuerySpec("a", tiny_workload(1)));
  engine.drain();
  engine.submit(QuerySpec("b", tiny_workload(2)));
  engine.submit(QuerySpec("c", tiny_workload(3)));
  engine.drain();
  EXPECT_EQ(engine.stats().epochs, 2u);
  EXPECT_EQ(engine.stats().queries, 3u);
  EXPECT_GT(engine.stats().total_traffic_bytes, 0.0);
  EXPECT_GT(engine.stats().sim_events, 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, EmptyDrainReturnsEmptyReport) {
  EngineOptions opts;
  opts.nodes = 4;
  Engine engine(opts);
  const EngineReport epoch = engine.drain();
  EXPECT_TRUE(epoch.queries.empty());
  EXPECT_TRUE(epoch.sim.coflows.empty());
  EXPECT_EQ(epoch.makespan, 0.0);
  // An empty epoch still counts as a drain; no queries though.
  EXPECT_EQ(engine.stats().epochs, 1u);
  EXPECT_EQ(engine.stats().queries, 0u);
}

TEST(Engine, AnalyticModeReportsGammaAsCct) {
  EngineOptions opts;
  opts.nodes = 4;
  opts.simulate = false;
  Engine engine(opts);
  engine.submit(QuerySpec("q", tiny_workload(5)));
  const EngineReport epoch = engine.drain();
  ASSERT_EQ(epoch.queries.size(), 1u);
  EXPECT_DOUBLE_EQ(epoch.queries[0].cct_seconds, epoch.queries[0].gamma_seconds);
  EXPECT_TRUE(epoch.sim.coflows.empty());
  EXPECT_EQ(epoch.makespan, 0.0);
}

TEST(Engine, PrebuiltFlowsSkipPlacement) {
  EngineOptions opts;
  opts.nodes = 3;
  Engine engine(opts);
  net::FlowMatrix flows(3);
  flows.set(0, 1, 125e6);
  flows.set(2, 1, 125e6);
  engine.submit("prebuilt", 0.0, std::move(flows));
  const EngineReport epoch = engine.drain();
  ASSERT_EQ(epoch.queries.size(), 1u);
  EXPECT_EQ(epoch.queries[0].flow_count, 2u);
  EXPECT_DOUBLE_EQ(epoch.queries[0].traffic_bytes, 250e6);
  // Both flows share node 1's ingress: 250 MB over one 125 MB/s port.
  EXPECT_NEAR(epoch.queries[0].cct_seconds, 2.0, 1e-9);
}

TEST(Engine, FaultScheduleAppliesToEveryEpoch) {
  EngineOptions clean_opts;
  clean_opts.nodes = 4;
  EngineOptions faulty_opts = clean_opts;
  faulty_opts.faults.slow_node(0.0, 0, 0.5);
  Engine clean(clean_opts);
  Engine faulty(faulty_opts);
  for (Engine* engine : {&clean, &faulty}) {
    engine->submit(QuerySpec("q", tiny_workload(9)));
  }
  const EngineReport c = clean.drain();
  const EngineReport f = faulty.drain();
  EXPECT_GT(f.queries[0].cct_seconds, c.queries[0].cct_seconds);
  EXPECT_GT(f.sim.fault_events, 0u);
  EXPECT_EQ(f.queries[0].gamma_seconds, c.queries[0].gamma_seconds);
}

TEST(Engine, ValidatesOptionsAndSubmissions) {
  EXPECT_THROW(Engine(EngineOptions{}), std::invalid_argument);  // nodes == 0
  EngineOptions bad_alloc;
  bad_alloc.nodes = 4;
  bad_alloc.allocator = "bogus";
  EXPECT_THROW(Engine{bad_alloc}, std::invalid_argument);

  EngineOptions opts;
  opts.nodes = 4;
  Engine engine(opts);
  EXPECT_THROW(engine.submit(QuerySpec{}), std::invalid_argument);  // no data
  EXPECT_THROW(engine.submit(QuerySpec("q", tiny_workload(1), "bogus")),
               std::invalid_argument);
  EXPECT_THROW(engine.submit(QuerySpec("q", tiny_workload(1), "ccf", -1.0)),
               std::invalid_argument);
  QuerySpec wrong_width("q", tiny_workload(1));
  EngineOptions wide_opts;
  wide_opts.nodes = 8;
  Engine wide(wide_opts);
  EXPECT_THROW(wide.submit(std::move(wrong_width)), std::invalid_argument);
  net::FlowMatrix small(2);
  EXPECT_THROW(engine.submit("pre", 0.0, std::move(small)),
               std::invalid_argument);
  // Nothing half-submitted survives a rejected call.
  EXPECT_EQ(engine.pending(), 0u);
}

}  // namespace
}  // namespace ccf::core
