// The two-tier rack model of §III-A as a Network: a one-spine leaf-spine
// (each rack behind one uplink and one downlink of hosts * rate / oversub),
// routed along the single path of every pair. RoutedTopology::topology()
// is what join::RackCcfScheduler takes.
#pragma once

#include <cstddef>
#include <memory>

#include "net/topology.hpp"

namespace ccf::testing {

inline std::shared_ptr<const net::RoutedTopology> one_spine_leaf_spine(
    std::size_t racks, std::size_t hosts, double rate, double oversub = 1.0) {
  const auto topo = net::Topology::leaf_spine(racks, hosts, 1, rate, oversub);
  return std::make_shared<const net::RoutedTopology>(topo,
                                                     net::route_ecmp(*topo));
}

}  // namespace ccf::testing
