// Rack-aware CCF placement (extension, §III-A note on complex networks).
//
// On a two-tier topology a cross-rack flow also consumes rack uplink
// bandwidth, so the makespan objective generalizes from the 2n-port
// bottleneck to
//
//   T = max( host-egress_i/ce, host-ingress_j/ci,
//            uplink-out_r/cu,  uplink-in_r/cu )        (normalized seconds)
//
// This scheduler runs the same greedy as Algorithm 1 but scores every
// candidate destination against all four link families, in O(n + r) per
// placement via the same top-2 trick (O(p log p + p·(n + r)) in total). With oversubscription 1.0 the uplinks can
// still bind (a rack's aggregate traffic exceeding its uplink), so this can
// beat the flat heuristic even on full-bisection rack fabrics.
#pragma once

#include "join/schedulers.hpp"
#include "net/flow.hpp"
#include "net/rack.hpp"

namespace ccf::join {

class RackCcfScheduler final : public PartitionScheduler {
 public:
  /// The topology is captured by reference; keep it alive while scheduling.
  explicit RackCcfScheduler(const net::RackFabric& topology)
      : topology_(&topology) {}

  std::string name() const override { return "ccf-rack"; }

  /// Optional pre-existing flows (e.g. skew-handler broadcasts) whose
  /// uplink usage should be accounted as initial load. The matrix must
  /// outlive schedule() calls. Pass nullptr to clear.
  void set_initial_flows(const net::FlowMatrix* flows) {
    initial_flows_ = flows;
  }

  Assignment schedule(const AssignmentProblem& problem) override;

 private:
  const net::RackFabric* topology_;
  const net::FlowMatrix* initial_flows_ = nullptr;
};

}  // namespace ccf::join
