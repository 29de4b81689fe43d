// Exact solver for model (3) by branch-and-bound.
//
// The problem is an integer multi-commodity-flow instance and NP-complete
// (paper §III-B, citing Even/Itai/Shamir), so this solver targets the small
// instances used to (a) validate the heuristic's optimality gap and (b)
// reproduce the paper's point that the exact approach cannot scale (the
// paper reports Gurobi needing >30 min at 500 nodes / 7500 partitions).
//
// Two modes (mirroring the simulator's reference/incremental engine split):
//
//  * kReference — the seed's sequential search: partitions in descending
//    size order, children scored by an O(n²) rescan, pruned with the
//    averaging lower bound, incumbent seeded by the reference greedy. Kept
//    as the equivalence anchor and the baseline of `bench_opt_scale`.
//  * kParallel — the portfolio optimizer: a GRASP multi-start (randomized
//    greedy + local search across diversified seeds) warm-starts the
//    incumbent, the top levels of the DFS tree are enumerated into
//    independent subtree tasks fanned out over util::parallel_for, workers
//    share the incumbent through atomics with lock-free reads on the
//    pruning hot path, children are scored in O(n) by the shared top-2
//    kernel, and pruning uses the water-filling packing bound
//    (opt/bounds.hpp). Both modes prove the same optimal T.
//
// The parallel result repeats from run to run. Incumbents are ordered by
// (T, rank): the warm start has rank 0 and subtree task i rank i + 1, and
// an equal-T assignment replaces the incumbent only from a lower rank. A
// task prunes at T against an incumbent of its own or a lower rank and only
// above T against any other, so the winner — the lowest-ranked optimum, the
// first in its task's depth-first order — is never pruned, however the
// workers interleave. Branches are undone by restoring saved loads
// (LoadProfile::save/restore), never by subtraction, so a node's loads do
// not depend on which siblings ran before it. The task split follows the
// thread count, so the returned optimum may differ between thread counts;
// runs stopped by max_nodes or time_limit_s still depend on timing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "opt/model.hpp"

namespace ccf::opt {

/// How many search nodes a worker may expand between wall-clock deadline
/// checks. Workers additionally check the deadline on subtree-task entry, so
/// `time_limit_s` is honored tightly even when tasks outnumber threads.
inline constexpr std::size_t kDeadlineCheckNodes = 4096;

enum class BnbMode {
  kReference,  ///< seed algorithm: sequential, averaging bound, O(n²) scoring
  kParallel,   ///< portfolio: GRASP warm start, packing bound, subtree fan-out
};

struct BnbOptions {
  /// Abort after exploring this many search nodes (result flagged !optimal).
  std::size_t max_nodes = 5'000'000;
  /// Wall-clock limit in seconds (result flagged !optimal on expiry).
  double time_limit_s = 30.0;
  /// Optional warm-start incumbent; must be a valid full assignment.
  std::optional<Assignment> initial;
  BnbMode mode = BnbMode::kParallel;
  /// Worker threads for kParallel (0 = hardware concurrency).
  std::size_t threads = 0;
  /// GRASP portfolio starts warm-starting kParallel when `initial` is unset
  /// (0 = plain greedy incumbent). Ignored by kReference.
  std::size_t grasp_starts = 8;
  /// Seed for the GRASP portfolio's randomized constructions.
  std::uint64_t seed = 1;
};

struct BnbResult {
  Assignment dest;       ///< best assignment found
  double T = 0.0;        ///< its makespan (bytes)
  bool optimal = false;  ///< proven optimal (search exhausted)
  std::size_t nodes_explored = 0;
  std::size_t subtree_tasks = 0;  ///< parallel mode: tasks fanned out
};

/// Solve to proven optimality or until a limit trips.
BnbResult solve_exact(const AssignmentProblem& problem, BnbOptions options = {});

}  // namespace ccf::opt
