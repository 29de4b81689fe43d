#include "opt/local_search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/skew_handling.hpp"
#include "data/workload.hpp"
#include "join/schedulers.hpp"
#include "opt/bnb.hpp"
#include "opt/bounds.hpp"
#include "opt/greedy.hpp"
#include "testing/paper_example.hpp"
#include "testing/refine_reference.hpp"
#include "util/rng.hpp"

namespace ccf::opt {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// FNV-1a over the assignment's bytes, chained from `h`.
std::uint64_t fnv1a(std::uint64_t h, const Assignment& dest) {
  for (const std::uint32_t d : dest) {
    for (int b = 0; b < 4; ++b) {
      h ^= (d >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// ccf-ls as the scheduler runs it: Algorithm 1, then refine from the
/// greedy's own final loads.
Assignment ccf_ls(const AssignmentProblem& problem, const PartitionStats& stats,
                  LocalSearchResult* result = nullptr) {
  LoadProfile loads = initial_loads(problem);
  Assignment dest(problem.partitions(), 0);
  greedy_place(problem, stats, descending_order(stats.max), loads, dest);
  const LocalSearchResult r = refine(problem, stats, dest, std::move(loads));
  if (result != nullptr) *result = r;
  return dest;
}

TEST(Refine, NeverIncreasesMakespan) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 31), 31);
    data::ChunkMatrix m(20, 4);
    for (std::size_t k = 0; k < 20; ++k) {
      for (std::size_t i = 0; i < 4; ++i) m.set(k, i, rng.uniform(0.0, 50.0));
    }
    AssignmentProblem p;
    p.matrix = &m;
    Assignment dest(20);
    for (auto& d : dest) d = rng.bounded(4);
    const double before = makespan(p, dest);
    const LocalSearchResult r = refine(p, dest);
    EXPECT_LE(r.final_T, before + 1e-9) << "seed " << seed;
    EXPECT_DOUBLE_EQ(makespan(p, dest), r.final_T);
    EXPECT_DOUBLE_EQ(r.initial_T, before);
  }
}

TEST(Refine, ImprovesAwfulAssignment) {
  // Everything dumped on node 0: local search must spread the load.
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  Assignment dest(m.partitions(), 0);  // key1's 6 tuples flood node 0
  const double before = makespan(p, dest);
  ASSERT_GE(before, 9.0);  // ingress of node 0 = 1 + 6 + 2 + 3 = 12... >= 9
  const LocalSearchResult r = refine(p, dest);
  EXPECT_LT(r.final_T, before);
  EXPECT_GT(r.moves, 0u);
}

TEST(Refine, FixedPointOnOptimal) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  Assignment dest = testing::paper_sp1();  // already optimal (T = 3)
  const LocalSearchResult r = refine(p, dest);
  EXPECT_DOUBLE_EQ(r.final_T, testing::kOptimalMakespan);
  EXPECT_EQ(dest, testing::paper_sp1());  // untouched
}

TEST(Refine, ReachesOptimumFromSp2) {
  // SP2 (T = 4) relocates key 2 -> optimal SP1-quality plan (T = 3).
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  Assignment dest = testing::paper_sp2();
  const LocalSearchResult r = refine(p, dest);
  EXPECT_DOUBLE_EQ(r.final_T, testing::kOptimalMakespan);
}

TEST(Refine, RespectsRoundLimit) {
  util::Pcg32 rng(7, 7);
  data::ChunkMatrix m(30, 5);
  for (std::size_t k = 0; k < 30; ++k) {
    for (std::size_t i = 0; i < 5; ++i) m.set(k, i, rng.uniform(0.0, 10.0));
  }
  AssignmentProblem p;
  p.matrix = &m;
  Assignment dest(30, 0);
  LocalSearchOptions opts;
  opts.max_rounds = 1;
  const LocalSearchResult r = refine(p, dest, opts);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(Refine, CloseToExactOnSmallRandomInstances) {
  // Greedy + local search should land within 15% of the proven optimum.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    util::Pcg32 rng(util::derive_seed(seed, 32), 32);
    data::ChunkMatrix m(8, 3);
    for (std::size_t k = 0; k < 8; ++k) {
      for (std::size_t i = 0; i < 3; ++i) m.set(k, i, rng.uniform(1.0, 20.0));
    }
    AssignmentProblem p;
    p.matrix = &m;
    Assignment dest = greedy_reference(p);
    refine(p, dest);
    const BnbResult exact = solve_exact(p);
    ASSERT_TRUE(exact.optimal);
    EXPECT_LE(makespan(p, dest), exact.T * 1.15 + 1e-9) << "seed " << seed;
  }
}

TEST(Refine, SizeMismatchThrows) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  Assignment dest = {0, 1};
  EXPECT_THROW(refine(p, dest), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pins. The recorded values are the assignments of the local search before
// it kept an exact load state (testing::refine_reference): ccf-ls must
// reproduce them bit for bit wherever chunks are not tied.
// ---------------------------------------------------------------------------

/// paper_join's instance: paper_default(n) seeded as the benchmark seeds it,
/// through the skew pre-pass (partial duplication on).
struct PaperInstance {
  data::Workload workload;
  core::PreparedInput prepared;

  PaperInstance(std::size_t n, std::uint64_t seed)
      : workload(data::generate_workload(spec(n, seed))),
        prepared(core::apply_partial_duplication(workload, true)) {}
  PaperInstance(const PaperInstance&) = delete;  // `prepared` views `workload`

  static data::WorkloadSpec spec(std::size_t n, std::uint64_t seed) {
    data::WorkloadSpec s = data::WorkloadSpec::paper_default(n);
    s.seed = util::derive_seed(seed, n);
    return s;
  }
};

struct PaperPin {
  std::uint64_t seed;
  std::uint64_t fnv;  ///< fnv1a(kFnvBasis, dest)
  double T;
};

class RefinePaperPin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RefinePaperPin, CcfLsMatchesRecordedAssignments) {
  // ccf-ls on paper_join's instances, seeds 1-10 (no move is made on any).
  static const std::vector<std::pair<std::size_t, PaperPin>> kPins = {
      {250, {1, 0x9b4bc960f47dfe92ull, 68893869742.721481}},
      {250, {2, 0x48fd61c5f7bfaad2ull, 68893872859.637756}},
      {250, {3, 0x94424ab94f4fbb22ull, 68893889169.110855}},
      {250, {4, 0x072a0ffa13ab1902ull, 68893862446.449478}},
      {250, {5, 0x91b216c17c65d702ull, 68893901704.74884}},
      {250, {6, 0x8981e83336e3e602ull, 68893913523.617325}},
      {250, {7, 0x897193b417d8c612ull, 68893860957.056015}},
      {250, {8, 0x2b9634d57f624bc2ull, 68893895209.891281}},
      {250, {9, 0x984eb411ebb6d6f2ull, 68893891825.7686}},
      {250, {10, 0x2293d79a1d76e9b2ull, 68893872378.314789}},
      {500, {1, 0x7195e831198d445bull, 57951519755.177795}},
      {500, {2, 0x48a4ba4409d55e1bull, 57951520122.270348}},
      {500, {3, 0x810535a843fe0a1bull, 57951518430.17775}},
      {500, {4, 0xd6bd0e7b706bcb0bull, 57951521004.618095}},
      {500, {5, 0x8f68275adb241f8bull, 57951519257.6409}},
      {500, {6, 0xd687d961bcadbbfbull, 57951519648.187286}},
      {500, {7, 0x32dd64f3de32f91bull, 57951520421.344666}},
      {500, {8, 0x1b815c8cca0ea42bull, 57951519666.942482}},
      {500, {9, 0x4ae3862f7900689bull, 57951520020.878067}},
      {500, {10, 0x25203c0a6e669cebull, 57951519385.611328}},
      {750, {1, 0xa5efc70bf4b39f3eull, 52491165421.936661}},
      {750, {2, 0x3adbc697029110eeull, 52491165231.300247}},
      {750, {3, 0xcc129104bef6f77eull, 52491165016.858032}},
      {750, {4, 0x7d6c4262cf10fcbeull, 52491164987.190292}},
      {750, {5, 0xf4646c5c5cc3c61eull, 52491165090.553871}},
      {750, {6, 0xfae506faaee5527eull, 52491165111.924103}},
      {750, {7, 0xb19dba00ae56724eull, 52491165198.795425}},
      {750, {8, 0x0f70cf4a380c910eull, 52491164805.492661}},
      {750, {9, 0xed0cde29c3c18c2eull, 52491165099.791306}},
      {750, {10, 0x982c932c8b84c72eull, 52491164846.223679}},
      {1000, {1, 0x89d0209c6918e857ull, 48978592884.268906}},
      {1000, {2, 0x3c4680599ec4e9c7ull, 48978593000.708847}},
      {1000, {3, 0x1c4e23a7834e1c27ull, 48978592624.436371}},
      {1000, {4, 0x4676da52c64f1a07ull, 48978593026.009033}},
      {1000, {5, 0xa07cb240afd6af37ull, 48978593031.103439}},
      {1000, {6, 0xc1ee73e3cb0fcf77ull, 48978592786.380569}},
      {1000, {7, 0x50a7f06490c47d67ull, 48978592630.100937}},
      {1000, {8, 0x3be2e1a4e2f46407ull, 48978592670.289154}},
      {1000, {9, 0x55183ff3503bf927ull, 48978592711.275299}},
      {1000, {10, 0x85331dc2cc891a97ull, 48978592788.548653}},
  };
  const std::size_t n = GetParam();
  std::size_t checked = 0;
  for (const auto& [pin_n, pin] : kPins) {
    if (pin_n != n) continue;
    const PaperInstance instance(n, pin.seed);
    const AssignmentProblem problem = instance.prepared.problem();
    const Assignment dest = join::CcfLsScheduler().schedule(problem);
    EXPECT_EQ(fnv1a(kFnvBasis, dest), pin.fnv) << "seed " << pin.seed;
    EXPECT_DOUBLE_EQ(makespan(problem, dest), pin.T) << "seed " << pin.seed;
    ++checked;
  }
  EXPECT_EQ(checked, 10u);
}

INSTANTIATE_TEST_SUITE_P(PaperJoinNodes, RefinePaperPin,
                         ::testing::Values(250, 500, 750, 1000),
                         [](const ::testing::TestParamInfo<std::size_t>&
                                param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

// The full scan is the cost the candidate rule removes: on paper_join's
// n = 500 instance no partition can lower T, and none is scanned.
TEST(RefinePin, PaperJoinN500ScansNoPartition) {
  const PaperInstance instance(500, 1);
  const AssignmentProblem problem = instance.prepared.problem();
  const PartitionStats stats(problem.matrix);
  LocalSearchResult r;
  ccf_ls(problem, stats, &r);
  EXPECT_EQ(r.moves, 0u);
  EXPECT_EQ(r.scanned, 0u);
}

/// Instance s of a seeded continuous family: n in [2, 12], p in [n, 6n],
/// chunks uniform in [0, 50); odd s carry initial loads.
struct ContinuousInstance {
  util::Pcg32 rng;
  data::ChunkMatrix m;
  AssignmentProblem problem;

  static data::ChunkMatrix draw_matrix(util::Pcg32& rng) {
    const std::size_t n = 2 + rng.bounded(11);
    const std::size_t p = n * (1 + rng.bounded(6));
    data::ChunkMatrix m(p, n);
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t i = 0; i < n; ++i) m.set(k, i, rng.uniform(0.0, 50.0));
    }
    return m;
  }

  explicit ContinuousInstance(std::uint64_t s)
      : rng(util::derive_seed(s, 91), 91), m(draw_matrix(rng)) {
    const std::size_t n = m.nodes();
    problem.matrix = &m;
    if (s % 2 == 1) {
      problem.initial_egress.resize(n);
      problem.initial_ingress.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        problem.initial_egress[i] = rng.uniform(0.0, 100.0);
        problem.initial_ingress[i] = rng.uniform(0.0, 100.0);
      }
    }
  }
  ContinuousInstance(const ContinuousInstance&) = delete;
};

TEST(RefinePin, ContinuousFamilyMatchesReference) {
  // 2,000 instances: half refine the greedy's assignment from its own loads
  // (ccf-ls), half a random assignment from evaluate()'s loads. The digest
  // pins the reference to the pre-change refine's 2,000 assignments.
  std::uint64_t digest = kFnvBasis;
  std::size_t moves = 0, differ = 0;
  for (std::uint64_t s = 0; s < 2000; ++s) {
    ContinuousInstance c(s);
    const PartitionStats stats(c.m);
    Assignment expected, dest;
    if ((s / 2) % 2 == 0) {
      expected = greedy(c.problem, stats);
      dest = ccf_ls(c.problem, stats);
    } else {
      expected.resize(c.m.partitions());
      for (auto& d : expected) {
        d = c.rng.bounded(static_cast<std::uint32_t>(c.m.nodes()));
      }
      dest = expected;
      refine(c.problem, stats, dest);
    }
    moves += testing::refine_reference(c.problem, stats, expected).moves;
    digest = fnv1a(digest, expected);
    if (dest != expected && ++differ <= 5) {
      ADD_FAILURE() << "instance " << s << ": T "
                    << makespan(c.problem, dest) << ", reference T "
                    << makespan(c.problem, expected);
    }
  }
  EXPECT_EQ(differ, 0u);
  EXPECT_EQ(digest, 0x39a7d1a1d694d726ull);
  EXPECT_EQ(moves, 7610u);
}

// ---------------------------------------------------------------------------
// Brute force: refine never raises T, and where it stops on its own (below
// the round limit, above the lower bound) no single relocation lowers T.
// ---------------------------------------------------------------------------

void expect_local_optimum(const AssignmentProblem& problem,
                          const PartitionStats& stats, Assignment dest,
                          const std::string& what) {
  const double before = makespan(problem, dest);
  const LocalSearchOptions options;
  const LocalSearchResult r = refine(problem, stats, dest, options);
  const double T = makespan(problem, dest);
  EXPECT_LE(r.final_T, r.initial_T) << what;
  EXPECT_LE(T, before * (1.0 + 1e-12)) << what;
  EXPECT_NEAR(r.final_T, T, 1e-12 * T) << what;
  if (r.rounds >= options.max_rounds ||
      r.final_T <= root_lower_bound(problem, stats) *
                       (1.0 + options.bound_tolerance)) {
    return;
  }
  const std::size_t n = problem.nodes();
  for (std::size_t k = 0; k < dest.size(); ++k) {
    const std::uint32_t a = dest[k];
    for (std::uint32_t d = 0; d < n; ++d) {
      if (d == a) continue;
      dest[k] = d;
      EXPECT_GE(makespan(problem, dest), T - 1e-9 * T)
          << what << ": moving partition " << k << " to " << d;
    }
    dest[k] = a;
  }
}

TEST(Refine, BruteForceNoSingleMoveLowersT) {
  for (std::uint64_t s = 0; s < 400; ++s) {
    util::Pcg32 rng(util::derive_seed(s, 92), 92);
    const std::size_t n = 2 + rng.bounded(5);
    const std::size_t p = 2 + rng.bounded(11);
    const bool tied = s % 2 == 0;
    data::ChunkMatrix m(p, n);
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = rng.uniform(0.0, 40.0);
        m.set(k, i, tied ? 0.1 * std::floor(v) : v);
      }
    }
    AssignmentProblem problem;
    problem.matrix = &m;
    if (s % 4 >= 2) {
      problem.initial_egress.resize(n);
      problem.initial_ingress.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double e = rng.uniform(0.0, 60.0), in = rng.uniform(0.0, 60.0);
        problem.initial_egress[i] = tied ? 0.1 * std::floor(e) : e;
        problem.initial_ingress[i] = tied ? 0.1 * std::floor(in) : in;
      }
    }
    const PartitionStats stats(m);
    Assignment random(p);
    for (auto& d : random) d = rng.bounded(static_cast<std::uint32_t>(n));
    const std::string what = "instance " + std::to_string(s);
    expect_local_optimum(problem, stats, random, what + " (random start)");
    expect_local_optimum(problem, stats, greedy(problem, stats),
                         what + " (greedy start)");
  }
}

TEST(Refine, LoadProfileSizeMismatchThrows) {
  const auto m = testing::paper_chunk_matrix();
  AssignmentProblem p;
  p.matrix = &m;
  const PartitionStats stats(m);
  Assignment dest = testing::paper_sp1();
  LoadProfile short_loads;
  short_loads.egress.assign(2, 0.0);
  short_loads.ingress.assign(2, 0.0);
  EXPECT_THROW(refine(p, stats, dest, short_loads), std::invalid_argument);
  Assignment bad(m.partitions(), 7);
  EXPECT_THROW(refine(p, stats, bad, initial_loads(p)), std::invalid_argument);
}

}  // namespace
}  // namespace ccf::opt
