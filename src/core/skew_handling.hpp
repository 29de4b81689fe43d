// Partial duplication skew handling (paper §III-C, after Xu et al. SIGMOD'08).
//
// Idea: the (large) set of probe-side tuples carrying a hot key is kept
// local and never transferred; instead, the (tiny) set of matching
// build-side tuples is broadcast to all other nodes. The broadcast flows
// v0_{ij} become the *initial status* of the coflow and the initial loads of
// the optimization model (constraint (1.2') in the paper), and the chunk
// matrix handed to the placement scheduler is the residual h' without the
// pinned hot bytes. Only the hot partition's row differs from the workload's
// matrix, so h' is a view of that matrix plus one rewritten row
// (data::ChunkView), never a p x n copy.
#pragma once

#include "data/workload.hpp"
#include "net/flow.hpp"
#include "opt/model.hpp"

namespace ccf::core {

/// Scheduler-ready input after the (optional) skew pre-pass. It views the
/// workload's matrix: keep the workload alive while this is in use.
struct PreparedInput {
  data::ChunkView residual;       ///< h': rows the scheduler optimizes
  net::FlowMatrix initial_flows;  ///< v0: broadcast flows seeding the coflow
  std::vector<double> initial_egress;   ///< per-node bytes of v0 leaving
  std::vector<double> initial_ingress;  ///< per-node bytes of v0 entering
  double pinned_local_bytes = 0.0;  ///< skewed probe bytes kept local (free)
  /// Build-side bytes actually removed from the residual matrix in favor of
  /// the broadcast (clamped by what the source chunk held), so that
  /// original_total == residual_total + pinned_local_bytes + this.
  double broadcast_removed_bytes = 0.0;
  bool skew_handled = false;

  /// View as the optimization problem of model (3) + skew extension. The
  /// returned problem views the same rows as `residual`.
  opt::AssignmentProblem problem() const;
};

/// Apply partial duplication if `enable` and the workload has skew;
/// otherwise pass the workload through unchanged (Hash's configuration).
PreparedInput apply_partial_duplication(const data::Workload& workload,
                                        bool enable);
/// The result views the workload's matrix, so a temporary workload would
/// leave it dangling.
PreparedInput apply_partial_duplication(const data::Workload&& workload,
                                        bool enable) = delete;

}  // namespace ccf::core
