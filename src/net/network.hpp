// Generic capacitated-link network model.
//
// The paper's model constrains each flow f_ij by the set of links L_ij it
// traverses (constraint (1.5)), then specializes to the non-blocking switch
// where L_ij = {egress_i, ingress_j}. This interface keeps the general form:
// a Network enumerates the links of any (src,dst) pair and their capacities,
// so rate allocators and bounds work for both the flat fabric (fabric.hpp)
// and richer topologies (topology.hpp), exactly the "easily extended to
// complex network conditions by adding parameters to these two constraints"
// note of §III-A.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccf::net {

/// A network as a set of capacitated links plus a flow->links mapping.
class Network {
 public:
  using LinkId = std::uint32_t;

  virtual ~Network() = default;

  /// Number of end hosts.
  virtual std::size_t nodes() const noexcept = 0;
  /// Total number of capacitated links.
  virtual std::size_t link_count() const noexcept = 0;
  /// Capacity of one link in bytes/second. Pristine topologies keep this
  /// > 0; a fault-adjusted view (faults.hpp) may report 0 for a failed link.
  virtual double link_capacity(LinkId link) const = 0;
  /// Append the links flow (src -> dst) traverses (the paper's L_ij).
  /// Requires src != dst; both < nodes(). Implementations debug-assert the
  /// src != dst precondition — a self-flow has no L_ij, and callers
  /// (simulator, bounds, routing) all filter the diagonal before asking.
  /// Note the distinct *intra-rack* case src != dst, rack(src) == rack(dst),
  /// which IS valid and short-circuits the switch layer (a routed
  /// topology.hpp leaf-spine returns just the two host ports).
  virtual void append_links(std::uint32_t src, std::uint32_t dst,
                            std::vector<LinkId>& out) const = 0;

  /// Links forming a node's egress-side attachment — what a node-level fault
  /// (faults.hpp) degrades. The default assumes the convention every bundled
  /// topology follows: LinkId `node` is node's egress port and
  /// `nodes() + node` its ingress port; a network with a different port
  /// layout must override both.
  virtual void append_egress_links(std::uint32_t node,
                                   std::vector<LinkId>& out) const {
    out.push_back(static_cast<LinkId>(node));
  }
  /// Ingress-side counterpart of append_egress_links.
  virtual void append_ingress_links(std::uint32_t node,
                                    std::vector<LinkId>& out) const {
    out.push_back(static_cast<LinkId>(nodes() + node));
  }

  /// Convenience wrapper around append_links.
  std::vector<LinkId> links_of(std::uint32_t src, std::uint32_t dst) const {
    std::vector<LinkId> out;
    append_links(src, dst, out);
    return out;
  }
};

}  // namespace ccf::net
