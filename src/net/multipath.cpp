#include "net/multipath.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "util/name_table.hpp"

namespace ccf::net {

namespace {

/// Per-link byte loads of an aggregate demand under a route choice. The
/// sorted triples visit the same pairs in the same order as the historical
/// dense ascending scan, so the load sums are bit-identical.
std::vector<double> routed_loads(const Topology& topology,
                                 const Demand& demand,
                                 const RouteChoice& choice) {
  const std::size_t n = topology.nodes();
  std::vector<double> loads(topology.link_count(), 0.0);
  std::vector<Topology::LinkId> scratch;
  const std::span<const std::uint32_t> srcs = demand.srcs();
  const std::span<const std::uint32_t> dsts = demand.dsts();
  const std::span<const double> vols = demand.volumes();
  for (std::size_t k = 0; k < vols.size(); ++k) {
    scratch.clear();
    topology.append_path_links(srcs[k], dsts[k],
                               choice[srcs[k] * n + dsts[k]], scratch);
    for (const auto l : scratch) loads[l] += vols[k];
  }
  return loads;
}

double max_utilization(const Topology& topology,
                       const std::vector<double>& loads) {
  double gamma = 0.0;
  for (std::size_t l = 0; l < loads.size(); ++l) {
    gamma = std::max(gamma, loads[l] / topology.link_capacity(
                                           static_cast<Topology::LinkId>(l)));
  }
  return gamma;
}

}  // namespace

double routed_gamma(const Topology& topology, const Demand& demand,
                    const RouteChoice& choice) {
  if (demand.nodes() != topology.nodes()) {
    throw std::invalid_argument("routed_gamma: size mismatch");
  }
  return max_utilization(topology, routed_loads(topology, demand, choice));
}

double routed_gamma(const Topology& topology, const FlowMatrix& flows,
                    const RouteChoice& choice) {
  return routed_gamma(topology, Demand::from_matrix(flows), choice);
}

RouteChoice route_joint(const Topology& topology, const Demand& demand,
                        const JointRouteOptions& options) {
  const std::size_t n = topology.nodes();
  if (demand.nodes() != n) {
    throw std::invalid_argument("route_joint: size mismatch");
  }
  RouteChoice ecmp = route_ecmp(topology);
  if (topology.max_path_count() <= 1) return ecmp;  // nothing to choose

  // Warm start: the better of static ECMP and the volume-greedy pass. ECMP
  // is one of the candidates, so the never-worse-than-ECMP invariant holds
  // from the first iterate on.
  const double gamma_ecmp = routed_gamma(topology, demand, ecmp);
  RouteChoice current = route_greedy(topology, demand);
  std::vector<double> loads = routed_loads(topology, demand, current);
  double best_gamma = max_utilization(topology, loads);
  if (gamma_ecmp < best_gamma) {
    current = std::move(ecmp);
    loads = routed_loads(topology, demand, current);
    best_gamma = gamma_ecmp;
  }
  if (best_gamma <= 0.0) return current;  // no demand

  struct Move {
    std::size_t pair;       // src * n + dst
    std::uint32_t old_path;
    double volume;
  };
  std::vector<Topology::LinkId> old_links, new_links;
  std::vector<Move> undo;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    // Bottleneck link under the current choice (lowest id on ties, so the
    // descent is deterministic).
    std::size_t bottleneck = 0;
    double worst = -1.0;
    for (std::size_t l = 0; l < loads.size(); ++l) {
      const double util =
          loads[l] /
          topology.link_capacity(static_cast<Topology::LinkId>(l));
      if (util > worst) {
        worst = util;
        bottleneck = l;
      }
    }

    // Flows crossing the bottleneck, heaviest first.
    struct Crossing {
      std::uint32_t src, dst;
      double volume;
    };
    std::vector<Crossing> crossing;
    {
      const std::span<const std::uint32_t> srcs = demand.srcs();
      const std::span<const std::uint32_t> dsts = demand.dsts();
      const std::span<const double> vols = demand.volumes();
      for (std::size_t k = 0; k < vols.size(); ++k) {
        old_links.clear();
        topology.append_path_links(srcs[k], dsts[k],
                                   current[srcs[k] * n + dsts[k]], old_links);
        if (std::find(old_links.begin(), old_links.end(),
                      static_cast<Topology::LinkId>(bottleneck)) !=
            old_links.end()) {
          crossing.push_back({srcs[k], dsts[k], vols[k]});
        }
      }
    }
    std::sort(crossing.begin(), crossing.end(),
              [](const Crossing& a, const Crossing& b) {
                if (a.volume != b.volume) return a.volume > b.volume;
                if (a.src != b.src) return a.src < b.src;
                return a.dst < b.dst;
              });

    // Move each onto its least-bottlenecked alternative path when that
    // lowers the flow's own worst link utilization.
    undo.clear();
    for (const Crossing& c : crossing) {
      if (undo.size() >= options.moves_per_round) break;
      const std::size_t pair = c.src * n + c.dst;
      const std::uint32_t cur = current[pair];
      const std::size_t paths = topology.path_count(c.src, c.dst);
      if (paths <= 1) continue;
      old_links.clear();
      topology.append_path_links(c.src, c.dst, cur, old_links);
      for (const auto l : old_links) loads[l] -= c.volume;  // lift the flow

      double cur_util = 0.0;
      for (const auto l : old_links) {
        cur_util = std::max(cur_util, (loads[l] + c.volume) /
                                          topology.link_capacity(l));
      }
      std::uint32_t best = cur;
      double best_util = cur_util;
      for (std::uint32_t k = 0; k < paths; ++k) {
        if (k == cur) continue;
        new_links.clear();
        topology.append_path_links(c.src, c.dst, k, new_links);
        double util = 0.0;
        for (const auto l : new_links) {
          util = std::max(util, (loads[l] + c.volume) /
                                    topology.link_capacity(l));
        }
        if (util < best_util) {
          best_util = util;
          best = k;
        }
      }
      new_links.clear();
      topology.append_path_links(c.src, c.dst, best, new_links);
      for (const auto l : new_links) loads[l] += c.volume;  // put it down
      if (best != cur) {
        current[pair] = best;
        undo.push_back({pair, cur, c.volume});
      }
    }
    if (undo.empty()) break;  // local minimum

    // Re-evaluate the fill: keep the round only if Γ improved.
    const double gamma = max_utilization(topology, loads);
    if (gamma < best_gamma * (1.0 - options.min_gain)) {
      best_gamma = gamma;
      continue;
    }
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      const std::uint32_t src = static_cast<std::uint32_t>(it->pair / n);
      const std::uint32_t dst = static_cast<std::uint32_t>(it->pair % n);
      new_links.clear();
      topology.append_path_links(src, dst, current[it->pair], new_links);
      for (const auto l : new_links) loads[l] -= it->volume;
      old_links.clear();
      topology.append_path_links(src, dst, it->old_path, old_links);
      for (const auto l : old_links) loads[l] += it->volume;
      current[it->pair] = it->old_path;
    }
    break;
  }
  return current;
}

RouteChoice route_joint(const Topology& topology, const FlowMatrix& flows,
                        const JointRouteOptions& options) {
  if (flows.nodes() != topology.nodes()) {
    throw std::invalid_argument("route_joint: size mismatch");
  }
  return route_joint(topology, Demand::from_matrix(flows), options);
}

namespace {

class EcmpPolicy final : public RoutingPolicy {
 public:
  std::string_view name() const noexcept override { return "ecmp"; }
  RouteChoice choose(const Topology& topology,
                     const Demand& /*demand*/) const override {
    return route_ecmp(topology);
  }
};

class GreedyPolicy final : public RoutingPolicy {
 public:
  std::string_view name() const noexcept override { return "greedy"; }
  RouteChoice choose(const Topology& topology,
                     const Demand& demand) const override {
    return route_greedy(topology, demand);
  }
};

class JointPolicy final : public RoutingPolicy {
 public:
  std::string_view name() const noexcept override { return "joint"; }
  RouteChoice choose(const Topology& topology,
                     const Demand& demand) const override {
    return route_joint(topology, demand);
  }
};

template <class T>
constexpr auto make = &util::make_default<RoutingPolicy, T>;

constexpr auto kRoutings = util::make_name_table<RoutingPolicy>({
    {"ecmp", make<EcmpPolicy>},
    {"greedy", make<GreedyPolicy>},
    {"joint", make<JointPolicy>},
});

}  // namespace

std::span<const std::string_view> routing_policy_names() {
  return kRoutings.names;
}

std::unique_ptr<RoutingPolicy> make_routing_policy(std::string_view name) {
  if (auto policy = kRoutings.make(name)) return policy;
  throw std::invalid_argument("make_routing_policy: unknown routing: " +
                              std::string(name));
}

}  // namespace ccf::net
