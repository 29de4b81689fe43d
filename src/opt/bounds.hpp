// Lower bounds on the optimal makespan T* of an AssignmentProblem, plus the
// shared top-2 candidate-scoring kernel used by every placement search.
// The bounds prune the exact branch-and-bound search and, in benches/tests,
// sanity-check how far the heuristic can possibly be from optimal.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "opt/model.hpp"

namespace ccf::opt {

// ---------------------------------------------------------------------------
// Top-2 candidate scoring
//
// Placing partition k (total S_k, chunks h_{ik}) at destination d changes
// exactly two quantities relative to the global load maxima: node d's egress
// stays put (it does not ship its own chunk) and node d's ingress gains
// (S_k - h_{dk}). So the top-2 of (egress[i] + h_{ik}) and the top-2 of
// ingress[] decide the bottleneck of *every* candidate d in O(1), turning the
// naive O(n²) per-placement scan into O(n). This is the scoring behind the
// Algorithm-1 kernel (opt/greedy.hpp), the local-search relocation step, and
// the branch-and-bound child scoring.
// ---------------------------------------------------------------------------

/// Largest and second-largest values of a load vector (max >= second) and the
/// index of the largest. Loads are non-negative, so the -1.0 sentinels are
/// below every real entry.
struct Top2 {
  std::size_t arg_max = 0;
  double max = -1.0;
  double second = -1.0;

  void feed(std::size_t i, double v) noexcept {
    if (v > max) {
      second = max;
      max = v;
      arg_max = i;
    } else if (v > second) {
      second = v;
    }
  }
  /// The largest value among entries other than i.
  double excluding(std::size_t i) const noexcept {
    return i == arg_max ? second : max;
  }
};

/// Top-2 of v.
Top2 top2(std::span<const double> v) noexcept;

/// Top-2 of base[i] + add[i] (the egress profile if partition k, with chunk
/// row `add`, landed anywhere else). Spans must have equal length.
Top2 top2_sum(std::span<const double> base, std::span<const double> add) noexcept;

/// Bottleneck load after placing a partition (total bytes `part_total`, local
/// chunk `h_kd`) at destination d, given the precomputed tops:
/// `eg` over (egress[i] + h_{ik}), `in` over ingress[], and d's own loads.
inline double placement_bottleneck(const Top2& eg, const Top2& in,
                                   double egress_d, double ingress_d,
                                   double part_total, double h_kd,
                                   std::size_t d) noexcept {
  return std::max(std::max(eg.excluding(d), egress_d),
                  std::max(in.excluding(d), ingress_d + (part_total - h_kd)));
}

// ---------------------------------------------------------------------------
// Lower bounds
// ---------------------------------------------------------------------------

/// Root lower bound on T*:
///   max( spread bound, largest unavoidable single-partition move ).
/// The spread bound: however partitions are placed, at least
/// Σ_k (S_k − max_i h_{ik}) bytes must cross the network; adding the fixed
/// initial loads and dividing by n bounds the bottleneck port from below.
double root_lower_bound(const AssignmentProblem& problem,
                        const PartitionStats& stats);

/// Water-filling (per-port packing) level: the smallest T such that the free
/// capacity under T across all ports absorbs `volume` bytes:
///   Σ_i max(0, T − loads[i]) >= volume.
/// Committed loads above the returned level contribute no capacity, so this
/// dominates the averaging bound (Σ loads + volume) / n, strictly whenever
/// some port already sticks out above the average. `scratch` is overwritten
/// (it avoids a per-call allocation on the branch-and-bound hot path).
double water_fill_level(std::span<const double> loads, double volume,
                        std::vector<double>& scratch);

/// Reusable buffers for partial_lower_bound on hot paths.
struct BoundScratch {
  std::vector<double> levels;
};

/// Lower bound for a partial assignment: assigned partitions contribute their
/// exact loads (already accumulated into egress/ingress by the caller);
/// unassigned ones at least their minimum possible traffic. Combines
///   * `current_T`, the bottleneck of the committed loads,
///   * water-filling of the unavoidable future volume `future_min`
///     (Σ PartitionStats::rmin over `unassigned`; the branch-and-bound keeps
///     it in a per-depth suffix table) over the committed ingress and egress
///     profiles (per-port packing), and
///   * the exact best-case landing of `unassigned.front()` — callers list
///     unassigned partitions largest-first, so the front singleton is the
///     strongest: min_j (ingress[j] + S_k − h_{jk}).
double partial_lower_bound(const AssignmentProblem& problem,
                           const PartitionStats& stats,
                           std::span<const double> egress,
                           std::span<const double> ingress,
                           std::span<const std::uint32_t> unassigned,
                           double current_T, BoundScratch& scratch,
                           double future_min);

/// Convenience overload building its own statistics, future volume and
/// scratch (tests, one-shot callers).
double partial_lower_bound(const AssignmentProblem& problem,
                           std::span<const double> egress,
                           std::span<const double> ingress,
                           std::span<const std::uint32_t> unassigned,
                           double current_T);

/// Minimum bytes partition k must put on the wire regardless of destination:
/// S_k − max_i h_{ik}.
double min_partition_traffic(const data::ChunkView& m, std::size_t k);

// ---------------------------------------------------------------------------
// Strong infeasibility tests
//
// Two necessary conditions for "some completion of this partial assignment
// has makespan < T". Violating either proves the subtree cannot beat the
// incumbent, so the branch-and-bound prunes. Both exploit structure the
// water-fill bound ignores:
//
//  * Argmax concentration. Water-filling charges every unassigned partition
//    its best-case traffic r_k = S_k − max_i h_{ik}, as if each landed on its
//    own largest chunk. But partitions whose largest chunk sits on the same
//    port compete for that port's free capacity below T; the losers pay at
//    least r2_k = S_k − (second-largest chunk). The test caps the total
//    "argmax discount" Σ (r2_k − r_k) by a per-port fractional knapsack over
//    capacity T − ingress[j] and requires
//      Σ r2_k − discount(T)  <=  Σ_j max(0, T − ingress[j]).
//
//  * Egress drain. Port j's final egress is
//      egress[j] + Σ_{k unassigned} h_{jk} − Σ_{k → j} h_{jk}:
//    every unassigned chunk on j ships out unless its partition lands on j.
//    Keeping j's egress below T therefore forces Σ_{k→j} h_{jk} bytes of
//    chunks to land on j — and each landing adds S_k − h_{jk} to j's
//    *ingress*. The minimum forced ingress (fractional greedy by
//    (S_k − h)/h) must still fit under T. This couples the two sides of the
//    bottleneck and is the dominant pruner on skewed (hot-port) instances.
//
// Statics are built once per problem from its PartitionStats (r_k is
// PartitionStats::rmin, r2_k PartitionStats::rsecond); the per-node test is
// allocation-free and O(n + candidates walked).
// ---------------------------------------------------------------------------

/// Per-problem candidate lists for infeasible_below, sorted once so the hot
/// path walks them in greedy order, skipping assigned partitions.
struct PruneStatics {
  /// argmax_lists[j]: partitions with arg_max == j, by discount density
  /// (rsecond − rmin) / rmin descending (rmin == 0 first — they cost no
  /// capacity).
  std::vector<std::vector<std::uint32_t>> argmax_lists;
  /// drain_lists[j]: partitions with h_{jk} > 0, by forced-ingress ratio
  /// (S_k − h_{jk}) / h_{jk} ascending (cheapest drain first).
  std::vector<std::vector<std::uint32_t>> drain_lists;
};

PruneStatics make_prune_statics(const AssignmentProblem& problem,
                                const PartitionStats& stats);

/// A partial assignment along a static search order, as the branch-and-bound
/// maintains it. order[0..depth) are assigned (loads already committed into
/// egress/ingress, which include the problem's initial loads), order[depth..)
/// are not. pos[k] is k's index in `order` (assigned iff pos[k] < depth).
/// future_rsecond and future_chunks summarize the unassigned suffix:
/// Σ rsecond(k) and the per-port Σ h_{jk} (suffix tables in the solver).
struct PrunePrefix {
  std::span<const double> egress;
  std::span<const double> ingress;
  std::span<const std::uint32_t> order;
  std::size_t depth = 0;
  std::span<const std::size_t> pos;
  double future_rsecond = 0.0;
  std::span<const double> future_chunks;
};

/// True if provably NO completion of the prefix has makespan < T. Both tests
/// are relaxations (fractional knapsacks), so `false` says nothing — but
/// `true` is safe to prune on.
bool infeasible_below(const AssignmentProblem& problem,
                      const PartitionStats& stats, const PruneStatics& s,
                      const PrunePrefix& v, double T);

}  // namespace ccf::opt
