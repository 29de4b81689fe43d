// Parallel-solver equivalence suite (also the tsan_smoke target: build with
// -DCCF_SANITIZE=thread and run `ctest -L tsan_smoke` to put the shared
// incumbent, worker pool, and GRASP multi-start under ThreadSanitizer).
#include "opt/bnb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "data/workload.hpp"
#include "join/schedulers.hpp"
#include "opt/local_search.hpp"
#include "testing/names.hpp"
#include "util/rng.hpp"

namespace ccf::opt {
namespace {

data::Workload make_workload(std::size_t nodes, std::size_t partitions,
                             std::uint64_t seed) {
  data::WorkloadSpec spec;
  spec.nodes = nodes;
  spec.partitions = partitions;
  spec.customer_bytes = 1e6;
  spec.orders_bytes = 1e7;
  spec.zipf_theta = 0.8;
  spec.skew = 0.0;
  spec.align_zipf_ranks = false;
  spec.seed = seed;
  return data::generate_workload(spec);
}

// ---------------------------------------------------------------------------
// Parallel vs reference equivalence over seeds x sizes x thread counts.
// ---------------------------------------------------------------------------

struct EquivCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t partitions;
  std::size_t threads;
};

class ParallelEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(ParallelEquivalence, ProvenTMatchesReference) {
  const EquivCase c = GetParam();
  const auto w = make_workload(c.nodes, c.partitions, c.seed);
  AssignmentProblem problem;
  problem.matrix = &w.matrix;

  BnbOptions ref_opts;
  ref_opts.mode = BnbMode::kReference;
  const BnbResult ref = solve_exact(problem, ref_opts);
  ASSERT_TRUE(ref.optimal) << "reference failed to prove; pick smaller case";

  BnbOptions par_opts;
  par_opts.mode = BnbMode::kParallel;
  par_opts.threads = c.threads;
  const BnbResult par = solve_exact(problem, par_opts);
  ASSERT_TRUE(par.optimal);
  EXPECT_NEAR(par.T, ref.T, 1e-9 * (1.0 + ref.T));
  // The returned assignment must actually realize the claimed makespan.
  EXPECT_NEAR(makespan(problem, par.dest), par.T, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsSizesThreads, ParallelEquivalence,
    ::testing::Values(EquivCase{7, 4, 10, 1}, EquivCase{7, 4, 10, 4},
                      EquivCase{8, 4, 10, 2}, EquivCase{9, 4, 10, 8},
                      EquivCase{7, 5, 12, 1}, EquivCase{7, 5, 12, 8},
                      EquivCase{8, 5, 12, 4}, EquivCase{9, 5, 12, 2},
                      EquivCase{10, 3, 14, 8}, EquivCase{11, 6, 10, 4}),
    [](const ::testing::TestParamInfo<EquivCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_n" +
             std::to_string(param_info.param.nodes) + "_p" +
             std::to_string(param_info.param.partitions) + "_t" +
             std::to_string(param_info.param.threads);
    });

// ---------------------------------------------------------------------------
// Determinism: ties between equal-T optima go to the lower-ranked incumbent
// (the warm start, then the subtree tasks in order), so a proof returns the
// same assignment on every run at a given thread count, however the workers
// interleave.
// ---------------------------------------------------------------------------

/// A 0.1-grid instance with initial loads: many equal-T optima.
struct TiedInstance {
  data::ChunkMatrix m;
  AssignmentProblem problem;

  TiedInstance(std::size_t p, std::size_t n, std::uint64_t seed) : m(p, n) {
    util::Pcg32 rng(util::derive_seed(seed, 93), 93);
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        m.set(k, i, 0.1 * std::floor(rng.uniform(0.0, 40.0)));
      }
    }
    problem.matrix = &m;
    problem.initial_egress.resize(n);
    problem.initial_ingress.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      problem.initial_egress[i] = 0.1 * std::floor(rng.uniform(0.0, 60.0));
      problem.initial_ingress[i] = 0.1 * std::floor(rng.uniform(0.0, 60.0));
    }
  }
  TiedInstance(const TiedInstance&) = delete;
};

class ParallelRepeat : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelRepeat, SameAssignmentOnEveryRun) {
  BnbOptions opts;
  opts.mode = BnbMode::kParallel;
  opts.threads = GetParam();
  const auto expect_repeats = [&opts](const AssignmentProblem& problem,
                                      const std::string& what) {
    const BnbResult first = solve_exact(problem, opts);
    ASSERT_TRUE(first.optimal) << what;
    for (int run = 1; run < 50; ++run) {
      const BnbResult again = solve_exact(problem, opts);
      ASSERT_TRUE(again.optimal) << what;
      ASSERT_EQ(again.dest, first.dest) << what << ", run " << run;
      ASSERT_EQ(again.T, first.T) << what << ", run " << run;
    }
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TiedInstance tied(10 + seed % 3, 4 + seed % 2, seed);
    expect_repeats(tied.problem, "tied seed " + std::to_string(seed));
    const auto w = make_workload(4 + seed % 2, 10 + seed % 3, seed);
    AssignmentProblem zipf;
    zipf.matrix = &w.matrix;
    expect_repeats(zipf, "zipf seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ParallelRepeat, ::testing::Values(1, 2, 4, 8),
    [](const ::testing::TestParamInfo<std::size_t>& param_info) {
      return testing::numbered("t", param_info.param);
    });

// ---------------------------------------------------------------------------
// Abort semantics
// ---------------------------------------------------------------------------

TEST(ParallelAbort, TimeoutFlagsNonOptimal) {
  const auto w = make_workload(8, 40, 13);  // far beyond any 0-second proof
  AssignmentProblem problem;
  problem.matrix = &w.matrix;
  BnbOptions opts;
  opts.mode = BnbMode::kParallel;
  opts.threads = 4;
  opts.time_limit_s = 0.0;
  const BnbResult r = solve_exact(problem, opts);
  EXPECT_FALSE(r.optimal);
  // Even on timeout the incumbent is a full, consistent assignment.
  ASSERT_EQ(r.dest.size(), w.matrix.partitions());
  EXPECT_NEAR(makespan(problem, r.dest), r.T, 1e-9);
}

TEST(ParallelAbort, NodeLimitFlagsNonOptimal) {
  const auto w = make_workload(6, 20, 13);
  AssignmentProblem problem;
  problem.matrix = &w.matrix;
  BnbOptions opts;
  opts.mode = BnbMode::kParallel;
  opts.threads = 2;
  opts.max_nodes = 1;
  const BnbResult r = solve_exact(problem, opts);
  EXPECT_FALSE(r.optimal);
  EXPECT_NEAR(makespan(problem, r.dest), r.T, 1e-9);
}

// ---------------------------------------------------------------------------
// Portfolio scheduler guarantees
// ---------------------------------------------------------------------------

TEST(Portfolio, NeverWorseThanCcfLs) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto w = make_workload(6, 40, seed);
    AssignmentProblem problem;
    problem.matrix = &w.matrix;
    const auto ls = join::make_scheduler("ccf-ls")->schedule(problem);
    const auto pf = join::make_scheduler("ccf-portfolio")->schedule(problem);
    EXPECT_LE(makespan(problem, pf), makespan(problem, ls) + 1e-9)
        << "seed " << seed;
  }
}

TEST(Portfolio, GraspResultIndependentOfThreadCount) {
  const auto w = make_workload(6, 40, 21);
  AssignmentProblem problem;
  problem.matrix = &w.matrix;
  GraspOptions base;
  base.starts = 12;
  base.seed = 5;
  GraspResult first;
  bool have_first = false;
  for (std::size_t threads : {1, 2, 4, 8}) {
    GraspOptions o = base;
    o.threads = threads;
    const GraspResult r = grasp(problem, o);
    EXPECT_NEAR(makespan(problem, r.dest), r.T, 1e-9);
    if (!have_first) {
      first = r;
      have_first = true;
      continue;
    }
    EXPECT_DOUBLE_EQ(r.T, first.T) << "threads " << threads;
    EXPECT_EQ(r.best_start, first.best_start) << "threads " << threads;
    EXPECT_EQ(r.dest, first.dest) << "threads " << threads;
  }
}

TEST(Portfolio, WarmStartBoundsTheParallelSolverIncumbent) {
  // Even when the search aborts immediately, the result can never be worse
  // than the GRASP warm start, which is never worse than ccf-ls.
  const auto w = make_workload(7, 30, 3);
  AssignmentProblem problem;
  problem.matrix = &w.matrix;
  BnbOptions opts;
  opts.mode = BnbMode::kParallel;
  opts.threads = 2;
  opts.time_limit_s = 0.0;
  const BnbResult r = solve_exact(problem, opts);
  const auto ls = join::make_scheduler("ccf-ls")->schedule(problem);
  EXPECT_LE(r.T, makespan(problem, ls) + 1e-9);
}

}  // namespace
}  // namespace ccf::opt
