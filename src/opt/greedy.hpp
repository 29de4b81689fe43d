// The paper's Algorithm 1 as one kernel. Partitions are taken in descending
// order of a key (the largest chunk, line 1), and each goes to the
// destination that minimizes the bottleneck port load given everything
// placed so far (lines 2-10). The top-2 scoring of opt/bounds.hpp decides
// every candidate in O(1); with the keys read from a PartitionStats table the
// greedy costs O(p log p + p·n).
//
// Callers: join::CcfScheduler (as published), opt::grasp's constructions
// (perturbed keys, randomized picks), join::HeteroCcfScheduler (per-port
// capacities) and join::replace_failed_destinations (a destination mask over
// the surviving placements' loads). opt::greedy_reference (model.hpp) is the
// line-by-line oracle the tests compare it with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "opt/model.hpp"
#include "util/rng.hpp"

namespace ccf::opt {

/// Every span is empty or holds one entry per node.
struct GreedyOptions {
  /// allowed[d] != 0 lets partitions land on node d; empty allows every
  /// node. At least one node must be allowed.
  std::span<const char> allowed = {};
  /// Per-port capacities, both or neither. When set, loads still accumulate
  /// in bytes but every candidate is scored in seconds (load / capacity), so
  /// slow ports attract proportionally less traffic. Empty: homogeneous
  /// ports, scored in bytes.
  std::span<const double> egress_capacity = {};
  std::span<const double> ingress_capacity = {};
  /// When set, each placement picks uniformly among the `rcl` best
  /// destinations (ties: lower node first) instead of the first minimum.
  util::Pcg32* rng = nullptr;
  std::size_t rcl = 1;
};

/// Stable-sort partition indices by key, largest first: Algorithm 1's line 1
/// with key = PartitionStats::max.
void sort_descending(std::span<std::uint32_t> order,
                     std::span<const double> key);

/// Every partition index, in sort_descending order.
std::vector<std::uint32_t> descending_order(std::span<const double> key);

/// Place the partitions of `order`, in that order, each at the allowed
/// destination that minimizes the bottleneck after it lands (first minimum
/// on ties), starting from `loads`. Writes dest[k] for every k in `order`
/// and leaves the final loads in `loads`.
void greedy_place(const AssignmentProblem& problem, const PartitionStats& stats,
                  std::span<const std::uint32_t> order, LoadProfile& loads,
                  Assignment& dest, const GreedyOptions& options = {});

/// Algorithm 1 from the problem's initial loads: greedy_place of every
/// partition in descending order of `key` (empty: the largest chunk,
/// PartitionStats::max, as the paper sorts).
Assignment greedy(const AssignmentProblem& problem, const PartitionStats& stats,
                  const GreedyOptions& options = {},
                  std::span<const double> key = {});

}  // namespace ccf::opt
