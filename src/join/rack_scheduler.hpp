// Rack-aware CCF placement (extension, §III-A note on complex networks).
//
// On a two-tier topology — a one-spine leaf-spine, net::Topology::leaf_spine
// with spines = 1 — a cross-rack flow also consumes rack uplink bandwidth,
// so the makespan objective generalizes from the 2n-port bottleneck to
//
//   T = max( host-egress_i/ce, host-ingress_j/ci,
//            uplink-out_r/cu,  uplink-in_r/cu )        (normalized seconds)
//
// This scheduler runs the same greedy as Algorithm 1 but scores every
// candidate destination against all four link families, in O(n + r) per
// placement via the same top-2 trick (O(p log p + p·(n + r)) in total).
// With oversubscription 1.0 the uplinks can still bind (a rack's aggregate
// traffic exceeding its uplink), so this can beat the flat heuristic even on
// full-bisection leaf-spines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "join/schedulers.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"

namespace ccf::join {

class RackCcfScheduler final : public PartitionScheduler {
 public:
  /// Reads rack membership and the host and uplink capacities from a
  /// one-spine leaf-spine; throws std::invalid_argument for any other
  /// topology. The topology need not outlive the scheduler.
  explicit RackCcfScheduler(const net::Topology& topology);

  std::string name() const override { return "ccf-rack"; }

  /// Optional pre-existing flows (e.g. skew-handler broadcasts) whose
  /// uplink usage should be accounted as initial load. The matrix must
  /// outlive schedule() calls. Pass nullptr to clear.
  void set_initial_flows(const net::FlowMatrix* flows) {
    initial_flows_ = flows;
  }

  Assignment schedule(const AssignmentProblem& problem) override;

 private:
  std::vector<std::uint32_t> rack_of_;  ///< host -> rack
  std::size_t racks_ = 0;
  double host_rate_ = 0.0;
  double uplink_rate_ = 0.0;  ///< each rack's uplink and downlink
  const net::FlowMatrix* initial_flows_ = nullptr;
};

}  // namespace ccf::join
