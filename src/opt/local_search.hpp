// Local-search refinement and GRASP multi-start (extensions beyond the paper).
//
// Algorithm 1 is a one-pass greedy: early placements are never revisited.
// refine() repeatedly relocates single partitions whenever doing so strictly
// lowers the bottleneck makespan T, until a fixed point or a round limit.
// Used by the "ccf-ls" scheduler and the ablation bench.
//
// grasp() layers a portfolio on top: many randomized-greedy constructions
// (noise on the sort key, restricted-candidate-list destination picks; both
// are options of the Algorithm-1 kernel, opt/greedy.hpp), each refined by
// local search, run in parallel across diversified seeds. Start 0 is always
// the *deterministic* greedy construction (identical to CcfScheduler) +
// refine, so the portfolio is never worse than "ccf-ls".
// The best start warm-starts the exact branch-and-bound and backs the
// "ccf-portfolio" scheduler.
#pragma once

#include <cstddef>
#include <cstdint>

#include "opt/model.hpp"

namespace ccf::opt {

struct LocalSearchOptions {
  /// Maximum full sweeps over all partitions.
  std::size_t max_rounds = 8;
  /// Stop a sweep early once T is within this relative distance of the
  /// root lower bound (already provably near-optimal).
  double bound_tolerance = 1e-9;
};

struct LocalSearchResult {
  std::size_t moves = 0;       ///< relocations applied
  std::size_t rounds = 0;      ///< sweeps executed
  double initial_T = 0.0;
  double final_T = 0.0;
};

/// Refine `dest` in place. Never increases makespan.
LocalSearchResult refine(const AssignmentProblem& problem,
                         const PartitionStats& stats, Assignment& dest,
                         LocalSearchOptions options = {});

/// Convenience overload building its own PartitionStats.
LocalSearchResult refine(const AssignmentProblem& problem, Assignment& dest,
                         LocalSearchOptions options = {});

struct GraspOptions {
  /// Construction starts. Start 0 is the deterministic greedy (== ccf-ls
  /// when refined); starts 1..n-1 are randomized.
  std::size_t starts = 16;
  /// Master seed; start s draws from an independent stream derived from it.
  std::uint64_t seed = 1;
  /// Multiplicative noise on the size-descending sort key: key_k is scaled
  /// by (1 + sort_noise * u), u ~ U[0,1) per partition per start.
  double sort_noise = 0.25;
  /// Restricted candidate list size: each placement picks uniformly among
  /// the `rcl` best-scoring destinations (1 = pure greedy placements).
  std::size_t rcl = 3;
  /// Worker threads (0 = hardware concurrency). The result is independent
  /// of the thread count: starts are reduced in index order.
  std::size_t threads = 0;
  /// Local-search refinement applied to every construction.
  LocalSearchOptions refine;
};

struct GraspResult {
  Assignment dest;         ///< best refined assignment across all starts
  double T = 0.0;          ///< its makespan (bytes)
  std::size_t starts = 0;  ///< constructions run
  std::size_t best_start = 0;  ///< index of the winning start (0 = greedy)
};

/// Run the GRASP portfolio. Deterministic in (problem, options), whatever
/// `threads` resolves to. Every start reads the one `stats` table.
GraspResult grasp(const AssignmentProblem& problem, const PartitionStats& stats,
                  GraspOptions options = {});

/// Convenience overload building its own PartitionStats.
GraspResult grasp(const AssignmentProblem& problem, GraspOptions options = {});

}  // namespace ccf::opt
