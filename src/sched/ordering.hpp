// Coflow-ordering schedulers with approximation guarantees (DESIGN.md §13).
//
// The classic allocators (Varys-SEBF, Aalo) are heuristics with no
// optimality story. This layer adds the theory line for the total *weighted*
// CCT objective Σ w_c · CCT_c:
//
//  * sincronia_order — the Sincronia primal–dual ordering (Agarwal et al.,
//    SIGCOMM'18; the combinatorial core is the Ahmadi–Khuller–Purohit–Yang
//    primal–dual, IPCO'17). The same line of work: Chowdhury, Khuller,
//    Purohit and Yang, "Near Optimal Coflow Scheduling in Networks" (arXiv
//    1906.06851), and Shafiee and Ghaderi, "An Improved Bound for
//    Minimizing the Total Weighted Completion Time of Coflows in
//    Datacenters" (arXiv 1704.08357). Iterate from the last position:
//    charge the most-loaded ("bottleneck") port, schedule LAST the coflow
//    minimizing scaled-weight per unit of bottleneck demand, then scale the
//    remaining weights down by what the charge consumed. Composed with ANY
//    ordering-respecting rate allocation, the resulting schedule is a
//    4-approximation; the dual objective the iteration constructs is a
//    certified lower bound on the optimum, so the guarantee ships as an
//    executable test (tests/sched/ordering_ratio_test.cpp), not prose.
//
//  * lp_order — an ordering from the interval-indexed (deadline) LP
//    relaxation: geometric horizon points, greedy fractional packing in
//    weighted-shortest-processing-time priority, then list-rounding by
//    fractional completion time (the Hall–Schulz–Shmoys–Wein recipe). No LP
//    solver needed — the relaxation is packed greedily in closed form.
//
//  * OrderedAllocator — a permutation-respecting net::RateAllocator: it
//    computes an ordering whenever the schedulable membership changes and
//    drains the epoch in that fixed order through the existing kernels
//    (sequential MADD with backfilling, or per-coflow max-min fill). Any
//    ordering policy therefore slots into the Simulator, the Engine and the
//    Service unchanged; the registry exposes "sincronia" and "lp-order".
//
// Lower bounds (ordering_lower_bound) are the certificates the comparison
// bench and the ratio test measure against; each component is a valid lower
// bound on the optimal total weighted CCT of any schedule (arrivals at 0):
//  * dual       — the Sincronia dual objective via Queyranne's parallel
//                 inequalities (weak duality);
//  * isolation  — Σ_c w_c · Γ_c: every coflow needs at least its own
//                 bottleneck time even alone on the fabric;
//  * wspt       — per-port single-machine relaxation: each port must process
//                 its coflows' demands somehow, so the optimal weighted
//                 completion of that one machine (Smith's rule) bounds the
//                 coflow objective from below.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/allocator.hpp"

namespace ccf::net {
class Demand;
class FlowMatrix;
class Network;
}  // namespace ccf::net

namespace ccf::sched {

/// One ordering instance: per-coflow sparse (link, load) demands in CSR form
/// plus per-coflow weights and per-link capacities. Coflows are dense local
/// indices 0..coflow_count()-1; callers that order a subset of a larger
/// population keep their own local->global id map.
struct OrderingProblem {
  std::vector<double> capacity;           ///< per link
  std::vector<double> weight;             ///< per coflow (finite, >= 0)
  std::vector<std::uint32_t> row_offset;  ///< CSR offsets, coflow_count()+1
  std::vector<std::uint32_t> demand_link; ///< link id per CSR entry
  std::vector<double> demand_load;        ///< bytes per CSR entry (> 0)

  std::size_t coflow_count() const noexcept { return weight.size(); }
  std::size_t link_count() const noexcept { return capacity.size(); }

  /// Reset to an empty problem over `links` links with the given capacities.
  void reset(std::span<const double> capacities);
  void clear();

  /// Append one coflow with the given weight and per-link loads. `links` and
  /// `loads` are parallel; zero loads are dropped, duplicate link entries
  /// must already be aggregated. Throws std::invalid_argument on a bad
  /// weight, a load that is negative/non-finite, or an out-of-range link.
  void add_coflow(double w, std::span<const std::uint32_t> links,
                  std::span<const double> loads);

  /// Convenience: append a coflow from its sparse demand on a network
  /// (per-link loads via net::link_loads). The network must match the
  /// capacities this problem was reset with.
  void add_coflow(double w, const net::Demand& demand,
                  const net::Network& network);
  /// Dense-view bridge of the same (bit-identical per-link loads).
  void add_coflow(double w, const net::FlowMatrix& flows,
                  const net::Network& network);
};

/// Sincronia's BSSI primal–dual ordering. Writes the drain permutation into
/// `out` (out[0] is scheduled first) as local coflow indices. When `dual_lb`
/// is non-null it receives the dual objective accumulated by the iteration —
/// a certified lower bound on the optimal total weighted CCT for the
/// all-arrive-at-zero instance. Deterministic: all ties break towards the
/// smallest index. O(n · (n + nnz)).
void sincronia_order(const OrderingProblem& problem,
                     std::vector<std::uint32_t>& out,
                     double* dual_lb = nullptr);

/// Interval-relaxation ordering: pack the coflows fractionally into
/// geometric time intervals in WSPT priority (weight over total normalized
/// demand), then list-round by fractional completion time. Ties break by
/// WSPT priority then index, so the result is deterministic.
void lp_order(const OrderingProblem& problem, std::vector<std::uint32_t>& out);

/// The lower-bound certificate of one instance (see the header comment).
struct OrderingLowerBound {
  double dual = 0.0;       ///< Sincronia dual objective (weak duality)
  double isolation = 0.0;  ///< Σ w_c · Γ_c
  double wspt = 0.0;       ///< best per-port Smith's-rule bound
  double best() const noexcept {
    double b = dual;
    if (isolation > b) b = isolation;
    if (wspt > b) b = wspt;
    return b;
  }
};
OrderingLowerBound ordering_lower_bound(const OrderingProblem& problem);

/// An ordering policy by name. order() writes the drain permutation of the
/// problem's coflows into `out` (out[0] first). Implementations are pure
/// functions of the problem — no hidden state, so repeated calls agree.
class OrderingPolicy {
 public:
  virtual ~OrderingPolicy() = default;
  virtual std::string name() const = 0;
  virtual void order(const OrderingProblem& problem,
                     std::vector<std::uint32_t>& out) const = 0;
};

/// Registered ordering names, canonical order: "sincronia", "lp-order".
std::span<const std::string_view> ordering_names();
bool has_ordering(std::string_view name);
/// Throws std::invalid_argument on unknown names.
std::unique_ptr<OrderingPolicy> make_ordering(const std::string& name);

/// Intra-order drain kernel of the OrderedAllocator decorator. The two
/// kernels cover the drain styles of every classic allocator: kMadd is the
/// sequential MADD-with-backfilling that Madd/Varys/varys-edf use, kMaxMin
/// the per-coflow max-min fill that Fair/Aalo use.
enum class OrderedDrain { kMadd, kMaxMin };

/// Permutation-respecting rate allocator: recompute the ordering whenever
/// the schedulable membership changes (arrival / completion / rejection),
/// then drain every epoch in that fixed order. Progress within a stable
/// membership never reorders — the permutation is the schedule. The
/// registry's "sincronia" and "lp-order" are this decorator over kMadd.
std::unique_ptr<net::RateAllocator> make_ordered_allocator(
    const std::string& ordering, OrderedDrain drain = OrderedDrain::kMadd);

}  // namespace ccf::sched
