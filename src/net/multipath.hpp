// Coflow routing over a general topology (topology.hpp), the extension the
// paper's related work points to ("more advanced techniques on coflow
// scheduling (e.g., routing) will be able to be integrated in our
// framework"), posed as in Shi et al. (arXiv 1812.06898). A RoutingPolicy
// turns a Topology plus an aggregate demand into a RouteChoice: static ECMP,
// volume-greedy (both in topology.hpp), or route_joint, the joint
// routing×bandwidth co-optimizer — it descends on Γ of the routed network,
// which for a single aggregate coflow is exactly the CCT of the MADD fill
// (metrics.hpp), by repeatedly moving the heaviest flows off the bottleneck
// link and re-evaluating the fill.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "net/demand.hpp"
#include "net/flow.hpp"
#include "net/topology.hpp"

namespace ccf::net {

/// Knobs of the joint routing×bandwidth optimizer.
struct JointRouteOptions {
  /// Improvement rounds after the greedy/ECMP warm start.
  std::size_t max_rounds = 8;
  /// Flows re-routed off the bottleneck link per round (heaviest first).
  std::size_t moves_per_round = 16;
  /// A round must lower Γ by more than this relative amount to be kept.
  double min_gain = 1e-9;
};

/// Joint routing×bandwidth co-optimization: start from the better of ECMP
/// and volume-greedy, then iterate — find the link with the worst
/// utilization under the current route choice, move the heaviest flows
/// crossing it onto their least-bottlenecked alternative paths, re-evaluate
/// the fill (Γ of the routed network = the MADD fill's single-coflow CCT),
/// and keep the round only if Γ improved. By construction the result is
/// never worse than static ECMP on the same instance; the routing property
/// suite pins that invariant. The sparse Demand overload is the core
/// implementation (it scans only the aggregate's nonzero pairs); the
/// FlowMatrix overload bridges through Demand::from_matrix, whose triple
/// order matches the dense ascending scan, so both are bit-identical.
RouteChoice route_joint(const Topology& topology, const Demand& demand,
                        const JointRouteOptions& options = {});
RouteChoice route_joint(const Topology& topology, const FlowMatrix& flows,
                        const JointRouteOptions& options = {});

/// Γ of an aggregate demand on a topology under a route choice: the max over
/// all links of (bytes routed through the link / link capacity) — the
/// analytic single-coflow CCT of the routed network, and route_joint's
/// objective.
double routed_gamma(const Topology& topology, const Demand& demand,
                    const RouteChoice& choice);
double routed_gamma(const Topology& topology, const FlowMatrix& flows,
                    const RouteChoice& choice);

/// A named RouteChoice producer, so route selection composes with every
/// scheduler×allocator pair as a one-flag ablation (core::registry lists the
/// names; Engine/Service and ccf_sim dispatch through it per drain epoch).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual std::string_view name() const noexcept = 0;
  /// Produce the path choice for an aggregate demand ("demand" may be empty
  /// — ECMP ignores it entirely).
  virtual RouteChoice choose(const Topology& topology,
                             const Demand& demand) const = 0;
  /// Dense-view convenience bridge (tests and small-n callers).
  RouteChoice choose(const Topology& topology, const FlowMatrix& flows) const {
    return choose(topology, Demand::from_matrix(flows));
  }
};

/// Routing-policy names in canonical order: "ecmp" (static hash), "greedy"
/// (volume-greedy warm start only) and "joint" (route_joint).
std::span<const std::string_view> routing_policy_names();
/// Resolve a routing policy by name; throws std::invalid_argument on unknown
/// names.
std::unique_ptr<RoutingPolicy> make_routing_policy(std::string_view name);

}  // namespace ccf::net
