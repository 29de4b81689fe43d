// Analytic network metrics.
//
// The central quantity is Γ (gamma): the minimum possible completion time of
// a single coflow on a given fabric,
//
//   Γ = max( max_i egress_i / E_i , max_j ingress_j / I_j )
//
// (port load over port capacity). MADD achieves exactly Γ for a lone coflow,
// which is what the paper means by "optimal coflow schedule" and what models
// (1)-(3) minimize: T in model (3) is Γ·R for unit-capacity ports.
#pragma once

#include <cstddef>
#include <vector>

#include "net/demand.hpp"
#include "net/fabric.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"

namespace ccf::net {

/// Per-port load summary of one flow matrix.
struct PortLoads {
  std::vector<double> egress;   ///< bytes leaving each node
  std::vector<double> ingress;  ///< bytes entering each node
  double max_egress = 0.0;
  double max_ingress = 0.0;
  /// max(max_egress, max_ingress) — the paper's T for unit capacities.
  double bottleneck() const noexcept {
    return max_egress > max_ingress ? max_egress : max_ingress;
  }
};

/// Compute per-port loads of a sparse demand (the core implementation; the
/// marginals accumulate in sorted-triple order, which matches the dense
/// row-major order bit-for-bit).
PortLoads port_loads(const Demand& demand);

/// Dense bridge: per-port loads of a flow matrix (off-diagonal volumes only).
PortLoads port_loads(const FlowMatrix& flows);

/// Γ: the single-coflow CCT lower bound, achieved by MADD — the maximum over
/// all links of (bytes through the link / link capacity). Works for any
/// Network (flat fabric or routed topology).
double gamma_bound(const Demand& demand, const Network& network);
double gamma_bound(const FlowMatrix& flows, const Network& network);

/// Γ computed directly from port-load vectors (flat-fabric fast path).
double gamma_bound(const PortLoads& loads, const Fabric& fabric);

/// Per-link byte loads of a demand on a network, indexed by LinkId. The
/// FlowMatrix overload bridges through Demand::from_matrix (identical entry
/// order, so identical loads).
std::vector<double> link_loads(const Demand& demand, const Network& network);
std::vector<double> link_loads(const FlowMatrix& flows, const Network& network);

struct SimReport;  // simulator.hpp

/// Σ weight_c · CCT_c over a report's non-rejected coflows — the objective
/// the ordering schedulers (sched/ordering.hpp) carry guarantees for.
double total_weighted_cct(const SimReport& report);

/// Weighted mean CCT, Σ w·cct / Σ w over non-rejected coflows. The
/// denominator is guarded: an epoch whose coflows all carry zero weight (or
/// an empty report) returns 0.0 instead of NaN.
double weighted_average_cct(const SimReport& report);

}  // namespace ccf::net
