// Pins the Engine's cross-epoch reuse guarantees (core/engine.hpp):
//
//  1. A long-lived session is bit-identical to fresh Engines — epoch N of a
//     session that keeps its simulator, allocator, arena and plan cache
//     across drains reproduces the same batch drained by a freshly
//     constructed Engine, for every rate allocator the registry knows.
//  2. Plan-cache hits change the wall-clock, never the numbers — a session
//     with the cache disabled reports the same epochs.
//  3. Steady state allocates nothing — the session simulator's arena stops
//     growing once warm, and the plan cache stays within its capacity.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "data/workload.hpp"
#include "testing/names.hpp"

namespace ccf::core {
namespace {

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

/// Shared prepared workloads — the same pointers resubmitted every epoch,
/// exactly the always-on service's working set.
std::vector<std::shared_ptr<const data::Workload>> prepared_set(
    std::size_t count) {
  std::vector<std::shared_ptr<const data::Workload>> set;
  for (std::size_t i = 0; i < count; ++i) {
    set.push_back(
        std::make_shared<const data::Workload>(tiny_workload(300 + i)));
  }
  return set;
}

void submit_epoch(
    Engine& engine,
    const std::vector<std::shared_ptr<const data::Workload>>& workloads) {
  const char* schedulers[] = {"ccf", "hash", "mini"};
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    engine.submit(QuerySpec(testing::numbered("q", i), workloads[i],
                            schedulers[i % 3],
                            0.05 * static_cast<double>(i)));
  }
}

/// Everything but the wall-clock timings: a plan-cache hit legitimately
/// reports schedule_seconds == 0 while a cold run reports the real time.
void expect_identical_numbers(const EngineReport& a, const EngineReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].scheduler, b.queries[q].scheduler) << q;
    EXPECT_EQ(a.queries[q].skew_handled, b.queries[q].skew_handled) << q;
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
    EXPECT_EQ(a.sim.coflows[c].arrival, b.sim.coflows[c].arrival) << c;
    EXPECT_EQ(a.sim.coflows[c].completion, b.sim.coflows[c].completion) << c;
  }
}

// ---------------------------------------------------------------------------

class SessionReuse : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionReuse, LongLivedSessionMatchesFreshEnginePerEpoch) {
  EngineOptions opts;
  opts.nodes = 4;
  opts.allocator = GetParam();
  Engine session(opts);
  const auto workloads = prepared_set(3);

  for (int epoch = 0; epoch < 6; ++epoch) {
    submit_epoch(session, workloads);
    const EngineReport lived = session.drain();

    Engine fresh(opts);
    submit_epoch(fresh, workloads);
    const EngineReport isolated = fresh.drain();
    expect_identical_numbers(lived, isolated);
  }
  // Every epoch past the first was served from the plan cache.
  const EngineStats stats = session.stats();
  EXPECT_EQ(stats.plan_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 5u * 3u);
}

INSTANTIATE_TEST_SUITE_P(AllAllocators, SessionReuse, ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto name : registry::allocator_names())
                             names.emplace_back(name);
                           return names;
                         }()),
                         [](const auto& param_info) {
                           std::string label = param_info.param;
                           for (char& c : label)
                             if (c == '-') c = '_';
                           return label;
                         });

TEST(SessionReuseDetails, PlanCacheOnlyChangesTheWallClock) {
  // The flat fabric, and a routed leaf-spine whose joint routing re-runs
  // every epoch over the batch's aggregate demand: the cached session's
  // misses and hits must feed the router exactly what the uncached session's
  // misses do.
  for (const std::string topology :
       {"", "leafspine:racks=2,hosts=2,spines=2,oversub=2"}) {
    SCOPED_TRACE(topology);
    EngineOptions cached;
    cached.nodes = 4;
    cached.topology = topology;
    if (!topology.empty()) cached.routing = "joint";
    EngineOptions uncached = cached;
    uncached.plan_cache_capacity = 0;
    Engine with_cache(cached);
    Engine without_cache(uncached);
    const auto workloads = prepared_set(2);

    for (int epoch = 0; epoch < 4; ++epoch) {
      submit_epoch(with_cache, workloads);
      submit_epoch(without_cache, workloads);
      const EngineReport hot = with_cache.drain();
      const EngineReport cold = without_cache.drain();
      expect_identical_numbers(hot, cold);
      if (epoch > 0) {
        // The hit's reported placement time is exactly zero: the stage
        // graph never ran.
        for (const RunReport& r : hot.queries) {
          EXPECT_EQ(r.schedule_seconds, 0.0);
        }
      }
    }
    EXPECT_EQ(without_cache.stats().plan_hits, 0u);
    EXPECT_EQ(without_cache.stats().plan_misses, 8u);
    EXPECT_EQ(with_cache.stats().plan_hits, 6u);
  }
}

/// Submits (workload index, placement policy) pairs in the given order.
void submit_queries(
    Engine& engine,
    const std::vector<std::shared_ptr<const data::Workload>>& workloads,
    const std::vector<std::pair<std::size_t, std::string>>& queries) {
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto& [w, scheduler] = queries[q];
    engine.submit(QuerySpec(testing::numbered("q", q), workloads[w], scheduler,
                            0.05 * static_cast<double>(q)));
  }
}

TEST(SessionReuseDetails, MixedHitMissEpochMatchesFreshSession) {
  // The drain fans out over the plan-cache misses only; the hits' slots must
  // still report in submission order, bit-identical to a cold session.
  EngineOptions opts;
  opts.nodes = 4;
  Engine session(opts);
  const auto workloads = prepared_set(4);
  submit_queries(session, workloads, {{0, "ccf"}, {2, "mini"}});
  session.drain();

  const std::vector<std::pair<std::size_t, std::string>> mixed = {
      {0, "ccf"}, {1, "hash"}, {2, "mini"}, {3, "ccf"}};
  submit_queries(session, workloads, mixed);
  const EngineReport lived = session.drain();
  EXPECT_EQ(session.stats().plan_hits, 2u);
  EXPECT_EQ(session.stats().plan_misses, 4u);
  EXPECT_EQ(lived.queries[0].schedule_seconds, 0.0);
  EXPECT_EQ(lived.queries[2].schedule_seconds, 0.0);

  Engine fresh(opts);
  submit_queries(fresh, workloads, mixed);
  expect_identical_numbers(lived, fresh.drain());
}

TEST(SessionReuseDetails, AllHitEpochMatchesFreshSession) {
  EngineOptions opts;
  opts.nodes = 4;
  Engine session(opts);
  const auto workloads = prepared_set(4);
  const std::vector<std::pair<std::size_t, std::string>> queries = {
      {3, "hash"}, {0, "ccf"}, {2, "mini"}, {1, "ccf"}};
  submit_queries(session, workloads, queries);
  session.drain();

  submit_queries(session, workloads, queries);
  const EngineReport hot = session.drain();
  EXPECT_EQ(session.stats().plan_hits, 4u);
  EXPECT_EQ(session.stats().plan_misses, 4u);

  Engine fresh(opts);
  submit_queries(fresh, workloads, queries);
  expect_identical_numbers(hot, fresh.drain());
}

TEST(SessionReuseDetails, SteadyStateEpochsDoNotGrowTheArena) {
  EngineOptions opts;
  opts.nodes = 4;
  Engine session(opts);
  const auto workloads = prepared_set(3);

  // Warm up: the first drains build the simulator and size the arena blocks.
  for (int epoch = 0; epoch < 3; ++epoch) {
    submit_epoch(session, workloads);
    session.drain();
  }
  const std::size_t warm_capacity = session.sim_arena_capacity();
  EXPECT_GT(warm_capacity, 0u);

  EngineReport report;
  for (int epoch = 0; epoch < 10; ++epoch) {
    submit_epoch(session, workloads);
    session.drain_into(report);
    EXPECT_EQ(session.sim_arena_capacity(), warm_capacity) << epoch;
  }
}

TEST(SessionReuseDetails, PlanCacheEvictionIsWholesaleAndBounded) {
  EngineOptions opts;
  opts.nodes = 4;
  opts.plan_cache_capacity = 2;
  Engine session(opts);
  const auto workloads = prepared_set(3);

  submit_epoch(session, workloads);
  session.drain();
  // Third insert found the table full: wholesale clear, then insert.
  EXPECT_EQ(session.plan_cache_size(), 1u);
  EXPECT_LE(session.plan_cache_size(), opts.plan_cache_capacity);

  // A dropped entry is a miss again — and still numerically invisible.
  submit_epoch(session, workloads);
  const EngineReport second = session.drain();
  Engine fresh(opts);
  submit_epoch(fresh, workloads);
  expect_identical_numbers(second, fresh.drain());
}

TEST(SessionReuseDetails, CacheKeyIsWorkloadIdentityNotValue) {
  EngineOptions opts;
  opts.nodes = 4;
  Engine session(opts);
  const data::Workload base = tiny_workload(42);

  // Equal values, distinct objects: both are misses (pointer identity).
  session.submit(QuerySpec("a", data::Workload(base)));
  session.submit(QuerySpec("b", data::Workload(base)));
  session.drain();
  EXPECT_EQ(session.stats().plan_misses, 2u);
  EXPECT_EQ(session.stats().plan_hits, 0u);

  // Same object, different scheduler or skew flag: distinct plans.
  const auto shared = std::make_shared<const data::Workload>(base);
  session.submit(QuerySpec("c", shared, "ccf"));
  session.drain();
  session.submit(QuerySpec("d", shared, "hash"));
  QuerySpec no_skew("e", shared, "ccf");
  no_skew.skew_handling = false;
  session.submit(std::move(no_skew));
  session.submit(QuerySpec("f", shared, "ccf"));  // the only hit
  session.drain();
  EXPECT_EQ(session.stats().plan_hits, 1u);
  EXPECT_EQ(session.stats().plan_misses, 5u);
}

}  // namespace
}  // namespace ccf::core
