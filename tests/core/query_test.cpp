#include "core/query.hpp"

#include <gtest/gtest.h>

#include "testing/names.hpp"

namespace ccf::core {
namespace {

data::WorkloadSpec stage_workload(std::uint64_t seed, double scale = 1.0) {
  data::WorkloadSpec spec;
  spec.nodes = 6;
  spec.partitions = 60;
  spec.customer_bytes = 1e6 * scale;
  spec.orders_bytes = 1e7 * scale;
  spec.skew = 0.1;
  spec.seed = seed;
  return spec;
}

TEST(RunQuery, SingleStageMatchesItsOwnCct) {
  std::vector<QueryStage> plan = {{"only", stage_workload(1), {}, 0.0}};
  const QueryReport r = run_query(plan);
  ASSERT_EQ(r.stages.size(), 1u);
  EXPECT_DOUBLE_EQ(r.stages[0].ready, 0.0);
  EXPECT_GT(r.stages[0].completion, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, r.stages[0].completion);
  EXPECT_LE(r.iterations, 2u);
}

TEST(RunQuery, ChainWaitsForUpstreamCompletion) {
  std::vector<QueryStage> plan = {
      {"a", stage_workload(1), {}, 0.0},
      {"b", stage_workload(2, 0.5), {0}, 3.0},
  };
  const QueryReport r = run_query(plan);
  // Stage b becomes ready exactly when a completes plus 3 s of compute.
  EXPECT_NEAR(r.stages[1].ready, r.stages[0].completion + 3.0, 1e-6);
  EXPECT_GT(r.stages[1].completion, r.stages[1].ready);
}

TEST(RunQuery, DiamondDependencies) {
  std::vector<QueryStage> plan = {
      {"root", stage_workload(1), {}, 0.0},
      {"left", stage_workload(2, 0.4), {0}, 1.0},
      {"right", stage_workload(3, 0.6), {0}, 2.0},
      {"join", stage_workload(4, 0.2), {1, 2}, 0.5},
  };
  const QueryReport r = run_query(plan);
  const double branches_done =
      std::max(r.stages[1].completion, r.stages[2].completion);
  EXPECT_NEAR(r.stages[3].ready, branches_done + 0.5, 1e-6);
  // Left and right both start after the root.
  EXPECT_GE(r.stages[1].ready, r.stages[0].completion - 1e-6);
  EXPECT_GE(r.stages[2].ready, r.stages[0].completion - 1e-6);
}

TEST(RunQuery, IndependentStagesOverlap) {
  // Two independent stages share the fabric; with the default Varys
  // allocator they overlap, so the makespan is less than running them
  // back to back.
  std::vector<QueryStage> plan = {
      {"x", stage_workload(5), {}, 0.0},
      {"y", stage_workload(6), {}, 0.0},
  };
  const QueryReport r = run_query(plan);
  const double serial = r.stages[0].cct() + r.stages[1].cct();
  EXPECT_LT(r.makespan, serial);
}

TEST(RunQuery, ComputeOnlyLeadInShiftsReadiness) {
  std::vector<QueryStage> plan = {{"late", stage_workload(7), {}, 10.0}};
  const QueryReport r = run_query(plan);
  EXPECT_DOUBLE_EQ(r.stages[0].ready, 10.0);
}

TEST(RunQuery, FixedPointConvergesQuickly) {
  std::vector<QueryStage> plan;
  plan.push_back({"s0", stage_workload(10), {}, 0.0});
  for (std::size_t s = 1; s < 5; ++s) {
    plan.push_back({testing::numbered("s", s), stage_workload(10 + s, 0.5),
                    {s - 1}, 0.1});
  }
  const QueryReport r = run_query(plan);
  // A pure chain needs one extra round per level at most.
  EXPECT_LE(r.iterations, plan.size() + 1);
  for (std::size_t s = 1; s < 5; ++s) {
    EXPECT_GE(r.stages[s].ready, r.stages[s - 1].completion - 1e-6);
  }
}

TEST(RunQuery, SchedulerChoiceFlowsThrough) {
  std::vector<QueryStage> plan = {
      {"a", stage_workload(1), {}, 0.0},
      {"b", stage_workload(2), {0}, 0.0},
  };
  QueryOptions ccf_opts;
  ccf_opts.job.scheduler = "ccf";
  QueryOptions mini_opts;
  mini_opts.job.scheduler = "mini";
  EXPECT_LT(run_query(plan, ccf_opts).makespan,
            run_query(plan, mini_opts).makespan);
}

TEST(RunQuery, RejectsInvalidPlans) {
  EXPECT_THROW(run_query({}), std::invalid_argument);
  {
    std::vector<QueryStage> plan = {{"a", stage_workload(1), {0}, 0.0}};
    EXPECT_THROW(run_query(plan), std::invalid_argument);  // self-dependency
  }
  {
    std::vector<QueryStage> plan = {{"a", stage_workload(1), {5}, 0.0}};
    EXPECT_THROW(run_query(plan), std::invalid_argument);  // forward dep
  }
  {
    std::vector<QueryStage> plan = {{"a", stage_workload(1), {}, -1.0}};
    EXPECT_THROW(run_query(plan), std::invalid_argument);  // negative compute
  }
  {
    auto w2 = stage_workload(2);
    w2.nodes = 7;
    std::vector<QueryStage> plan = {{"a", stage_workload(1), {}, 0.0},
                                    {"b", w2, {0}, 0.0}};
    EXPECT_THROW(run_query(plan), std::invalid_argument);  // cluster mismatch
  }
}

}  // namespace
}  // namespace ccf::core
