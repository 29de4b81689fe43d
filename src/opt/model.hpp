// The paper's co-optimization model.
//
// Model (3) (§III-A): choose x_{jk} ∈ {0,1} (partition k -> node j, exactly
// one j per k) minimizing
//
//     T = max( max_i Σ_k h_{ik} x_{jk} [j≠i]  ,  max_j Σ_{i≠j} h_{ik} x_{jk} )
//         ---------------- egress ----------   ------------ ingress --------
//
// i.e. the bottleneck port load in bytes; dividing by the port rate gives the
// coflow completion time t = T / R_l (models (1)/(2)). The skew extension of
// §III-C adds fixed initial flow volumes v0 (broadcasts), which enter as
// constant initial egress/ingress loads.
//
// This header defines the problem container, assignment evaluation, and an
// exporter to CPLEX-LP format so the exact MILP can also be solved by an
// external optimizer (the paper used Gurobi; see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/chunk_matrix.hpp"

namespace ccf::opt {

/// A partition destination per partition index; the decision vector
/// (dest[k] = j  <=>  x_{jk} = 1).
using Assignment = std::vector<std::uint32_t>;

/// One instance of model (3). Does not own the chunk matrix.
struct AssignmentProblem {
  /// The h_{ik} rows: a plain matrix (`problem.matrix = &m`) or partial
  /// duplication's residual view (core::PreparedInput::problem()).
  data::ChunkView matrix;
  /// Constant pre-existing loads (bytes) from the skew handler's broadcast
  /// flows; empty vectors mean all-zero.
  std::vector<double> initial_egress;
  std::vector<double> initial_ingress;

  std::size_t nodes() const noexcept { return matrix.nodes(); }
  std::size_t partitions() const noexcept { return matrix.partitions(); }
  double initial_egress_at(std::size_t i) const noexcept {
    return initial_egress.empty() ? 0.0 : initial_egress[i];
  }
  double initial_ingress_at(std::size_t j) const noexcept {
    return initial_ingress.empty() ? 0.0 : initial_ingress[j];
  }
  /// Throws std::invalid_argument on null matrix / size mismatches.
  void validate() const;
};

/// Per-partition statistics of the h_{ik} rows. Every placement search
/// reads these instead of rescanning rows: each top-level call (a
/// scheduler's schedule(), refine(), grasp(), solve_exact()) builds the table
/// once in O(p·n) and passes it down. Sums run in node order, so S_k is
/// bit-identical to data::ChunkView::partition_total.
struct PartitionStats {
  explicit PartitionStats(const data::ChunkView& m);

  std::vector<double> total;   ///< S_k = Σ_i h_{ik}
  std::vector<double> max;     ///< largest chunk, max_i h_{ik}
  std::vector<double> second;  ///< second-largest chunk (0 with one node)
  std::vector<std::uint32_t> arg_max;  ///< node holding `max` (ties: lowest)

  /// Minimum bytes partition k puts on the wire wherever it lands.
  double rmin(std::size_t k) const noexcept { return total[k] - max[k]; }
  /// Minimum bytes partition k puts on the wire if it avoids arg_max[k].
  double rsecond(std::size_t k) const noexcept { return total[k] - second[k]; }
};

/// Port loads induced by a (partial) assignment.
struct LoadProfile {
  std::vector<double> egress;
  std::vector<double> ingress;

  /// The objective T: bottleneck port load in bytes.
  double makespan() const noexcept;
};

/// The problem's initial loads, before any partition is placed.
LoadProfile initial_loads(const AssignmentProblem& problem);

/// Evaluate a complete assignment (dest.size() == partitions).
LoadProfile evaluate(const AssignmentProblem& problem,
                     std::span<const std::uint32_t> dest);

/// Convenience: evaluate(...).makespan().
double makespan(const AssignmentProblem& problem,
                std::span<const std::uint32_t> dest);

/// Network traffic (bytes moved to remote nodes) of an assignment, including
/// the problem's initial loads. Equal to Σ egress == Σ ingress.
double traffic(const AssignmentProblem& problem,
               std::span<const std::uint32_t> dest);

/// Emit model (3) in CPLEX-LP format (minimize T s.t. port-load and
/// one-destination constraints, x binary) for external solvers.
std::string to_lp_string(const AssignmentProblem& problem);

/// Reference implementation of the paper's Algorithm 1, written to mirror the
/// pseudocode line by line at O(p·n²). The production kernel (opt/greedy.hpp)
/// computes the identical result in O(p log p + p·n); tests assert the two
/// agree.
Assignment greedy_reference(const AssignmentProblem& problem);

}  // namespace ccf::opt
