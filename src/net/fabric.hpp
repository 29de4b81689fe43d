// The network model: a non-blocking switch interconnecting all machines
// (paper §II-B, following Varys). Every node has one ingress and one egress
// port; bandwidth contention happens only at ports. This matches full
// bisection bandwidth data-center topologies.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/network.hpp"

namespace ccf::net {

/// Non-blocking switch fabric with per-port capacities in bytes/second.
/// As a Network, it exposes 2n links: LinkId i in [0,n) is node i's egress
/// port, LinkId n+j is node j's ingress port; every flow crosses exactly two.
class Fabric : public Network {
 public:
  /// 1 Gbps per port expressed in bytes/second — the default used by all
  /// experiments (the paper leaves the port rate to CoflowSim's defaults;
  /// see DESIGN.md §2 for the calibration argument).
  static constexpr double kDefaultPortRate = 125e6;

  /// Homogeneous fabric: every port has the same capacity.
  explicit Fabric(std::size_t nodes, double port_rate = kDefaultPortRate);

  /// Heterogeneous fabric (extension beyond the paper's model).
  Fabric(std::vector<double> egress_caps, std::vector<double> ingress_caps);

  std::size_t nodes() const noexcept override { return egress_.size(); }
  double egress_capacity(std::size_t node) const { return egress_.at(node); }
  double ingress_capacity(std::size_t node) const { return ingress_.at(node); }
  /// Every port's capacity, indexed by node.
  std::span<const double> egress_capacities() const noexcept { return egress_; }
  std::span<const double> ingress_capacities() const noexcept {
    return ingress_;
  }

  bool homogeneous() const noexcept;
  /// Capacity of the slowest port.
  double min_capacity() const noexcept;

  /// LinkId of node's egress / ingress port (the fabric's fixed layout;
  /// fault schedules targeting specific ports use these).
  LinkId egress_link(std::size_t node) const noexcept {
    return static_cast<LinkId>(node);
  }
  LinkId ingress_link(std::size_t node) const noexcept {
    return static_cast<LinkId>(nodes() + node);
  }

  // Network interface.
  std::size_t link_count() const noexcept override { return 2 * nodes(); }
  double link_capacity(LinkId link) const override;
  void append_links(std::uint32_t src, std::uint32_t dst,
                    std::vector<LinkId>& out) const override;

 private:
  std::vector<double> egress_;
  std::vector<double> ingress_;
};

}  // namespace ccf::net
