// Application-level placement schedulers: decide the destination node of
// every data partition (the x_{jk} variables of the paper's model).
//
//  * Hash — the classical hash join baseline: dest(k) = k mod n. Spreads
//    load blindly; the paper's "Hash".
//  * Mini — minimizes network traffic: every partition goes to the node that
//    already holds its largest chunk (per-partition optimal, hence globally
//    traffic-optimal since partitions are independent). The paper's "Mini",
//    standing in for track-join-style techniques.
//  * Ccf — the paper's Algorithm 1: partitions in descending max-chunk order,
//    each placed to minimize the current bottleneck T. The shared kernel
//    (opt/greedy.hpp) takes O(n) per placement via incremental loads and
//    top-2 maxima and sorts on a per-partition table built once, so the
//    whole greedy costs O(p log p + p·n) (the paper's motivation: Gurobi took
//    >30 min at n=500, p=7500; this runs in tens of milliseconds).
//  * CcfLs — Ccf followed by local-search refinement (extension).
//  * Portfolio — GRASP multi-start: parallel randomized-greedy constructions
//    + local search across diversified seeds, never worse than CcfLs (its
//    deterministic start 0 *is* CcfLs).
//  * Exact — branch-and-bound to proven optimality (small instances; the
//    parallel portfolio mode fans subtrees out over worker threads).
//  * Random — uniform random destinations (property-test baseline).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "opt/bnb.hpp"
#include "opt/local_search.hpp"
#include "opt/model.hpp"

namespace ccf::join {

using opt::Assignment;
using opt::AssignmentProblem;

/// Strategy interface for partition placement.
class PartitionScheduler {
 public:
  virtual ~PartitionScheduler() = default;
  virtual std::string name() const = 0;
  /// Produce one destination per partition.
  virtual Assignment schedule(const AssignmentProblem& problem) = 0;
};

class HashScheduler final : public PartitionScheduler {
 public:
  std::string name() const override { return "hash"; }
  Assignment schedule(const AssignmentProblem& problem) override;
};

class MiniScheduler final : public PartitionScheduler {
 public:
  std::string name() const override { return "mini"; }
  Assignment schedule(const AssignmentProblem& problem) override;
};

class CcfScheduler final : public PartitionScheduler {
 public:
  std::string name() const override { return "ccf"; }
  Assignment schedule(const AssignmentProblem& problem) override;
};

class CcfLsScheduler final : public PartitionScheduler {
 public:
  std::string name() const override { return "ccf-ls"; }
  Assignment schedule(const AssignmentProblem& problem) override;
};

class PortfolioScheduler final : public PartitionScheduler {
 public:
  explicit PortfolioScheduler(opt::GraspOptions options = {})
      : options_(options) {}
  std::string name() const override { return "ccf-portfolio"; }
  Assignment schedule(const AssignmentProblem& problem) override;
  /// Makespan of the last schedule() result.
  double last_makespan() const noexcept { return last_T_; }
  /// Which start won the last portfolio (0 = the deterministic ccf-ls run).
  std::size_t last_best_start() const noexcept { return last_best_start_; }

 private:
  opt::GraspOptions options_;
  double last_T_ = 0.0;
  std::size_t last_best_start_ = 0;
};

class ExactScheduler final : public PartitionScheduler {
 public:
  explicit ExactScheduler(opt::BnbOptions options = {}) : options_(options) {}
  std::string name() const override { return "exact"; }
  Assignment schedule(const AssignmentProblem& problem) override;
  /// Whether the last schedule() call proved optimality.
  bool last_was_optimal() const noexcept { return last_optimal_; }

 private:
  opt::BnbOptions options_;
  bool last_optimal_ = false;
};

class RandomScheduler final : public PartitionScheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed = 1) : seed_(seed) {}
  std::string name() const override { return "random"; }
  Assignment schedule(const AssignmentProblem& problem) override;

 private:
  std::uint64_t seed_;
};

/// Scheduler names in canonical order: "hash", "mini", "ccf", "ccf-ls",
/// "ccf-portfolio", "exact", "random".
std::span<const std::string_view> scheduler_names();
/// Factory by name; throws std::invalid_argument on unknown names.
std::unique_ptr<PartitionScheduler> make_scheduler(const std::string& name);

/// Failure-aware re-planning (the application-level face of the simulator's
/// re-placement hook, DESIGN.md §6): given a placement and the nodes whose
/// *destination* role failed (dead ingress port — the node can still read
/// and send its local chunks), re-assign every partition currently headed
/// to a failed node with the Algorithm-1 greedy over the surviving nodes.
/// Healthy partitions keep their destinations and their loads are the
/// greedy's starting state, so the patch disturbs nothing that still works.
/// Any initial_ingress load on a failed node is treated as stranded and
/// excluded from the bottleneck. Throws std::invalid_argument if `failed`
/// contains an out-of-range node or covers every node.
Assignment replace_failed_destinations(const AssignmentProblem& problem,
                                       Assignment dest,
                                       std::span<const std::uint32_t> failed);

}  // namespace ccf::join
