#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace ccf::net {

namespace {

constexpr std::uint32_t kNoGroup = 0xffffffffu;

}  // namespace

/// Incremental assembler shared by the three factories. Builders register
/// links first (host ports in the canonical [0,2n) layout, then switch
/// links), then groups of segment paths, then map every ordered pair onto a
/// group.
class TopologyBuilder {
 public:
  TopologyBuilder(TopologyKind kind, std::size_t hosts,
                  std::size_t switch_count) {
    if (hosts == 0) throw std::invalid_argument("Topology: no hosts");
    topo_.kind_ = kind;
    topo_.nodes_ = hosts;
    topo_.graph_nodes_ = hosts + switch_count;
    topo_.pair_group_.assign(hosts * hosts, kNoGroup);
    topo_.group_off_.push_back(0);
    topo_.path_off_.push_back(0);
  }

  /// Register one directed link; returns its LinkId.
  Topology::LinkId add_link(std::uint32_t tail, std::uint32_t head,
                            double capacity) {
    if (capacity <= 0.0) {
      throw std::invalid_argument("Topology: link capacity must be > 0");
    }
    topo_.capacity_.push_back(capacity);
    topo_.ends_.push_back({tail, head});
    return static_cast<Topology::LinkId>(topo_.capacity_.size() - 1);
  }

  /// Register the canonical host ports: egress i = host -> attachment
  /// switch, ingress n + i = attachment switch -> host.
  void add_host_ports(const std::vector<std::uint32_t>& attachment,
                      double host_rate) {
    for (std::size_t i = 0; i < topo_.nodes_; ++i) {
      add_link(static_cast<std::uint32_t>(i), attachment[i], host_rate);
    }
    for (std::size_t i = 0; i < topo_.nodes_; ++i) {
      add_link(attachment[i], static_cast<std::uint32_t>(i), host_rate);
    }
  }

  /// Register one group of segment paths; returns the group id. Paths hold
  /// switch-level links only (empty = hosts share an attachment switch).
  std::uint32_t add_group(
      const std::vector<std::vector<Topology::LinkId>>& paths) {
    if (paths.empty()) throw std::invalid_argument("Topology: empty group");
    for (const auto& path : paths) {
      topo_.path_links_.insert(topo_.path_links_.end(), path.begin(),
                               path.end());
      topo_.path_off_.push_back(
          static_cast<std::uint32_t>(topo_.path_links_.size()));
    }
    topo_.group_off_.push_back(
        static_cast<std::uint32_t>(topo_.path_off_.size() - 1));
    topo_.max_paths_ = std::max(topo_.max_paths_, paths.size());
    return static_cast<std::uint32_t>(topo_.group_off_.size() - 2);
  }

  void set_pair_group(std::size_t src, std::size_t dst, std::uint32_t group) {
    topo_.pair_group_[src * topo_.nodes_ + dst] = group;
  }

  std::shared_ptr<const Topology> finish() {
    for (std::size_t i = 0; i < topo_.nodes_; ++i) {
      for (std::size_t j = 0; j < topo_.nodes_; ++j) {
        if (i != j && topo_.pair_group_[i * topo_.nodes_ + j] == kNoGroup) {
          throw std::logic_error("Topology: pair without a route group");
        }
      }
    }
    return std::make_shared<const Topology>(std::move(topo_));
  }

 private:
  Topology topo_;
};

std::size_t Topology::path_count(std::uint32_t src, std::uint32_t dst) const {
  assert(src != dst && "Topology route-sets are defined for src != dst");
  const std::uint32_t g = pair_group_.at(src * nodes_ + dst);
  if (g == kNoGroup) {  // diagonal entry in a release build
    throw std::out_of_range("Topology: no route-set for src == dst");
  }
  return group_off_[g + 1] - group_off_[g];
}

void Topology::append_path_links(std::uint32_t src, std::uint32_t dst,
                                 std::uint32_t k,
                                 std::vector<LinkId>& out) const {
  assert(src != dst && "Topology route-sets are defined for src != dst");
  const std::uint32_t g = pair_group_.at(src * nodes_ + dst);
  if (g == kNoGroup) {  // diagonal entry in a release build
    throw std::out_of_range("Topology: no route-set for src == dst");
  }
  const std::uint32_t path = group_off_[g] + k;
  if (path >= group_off_[g + 1]) {
    throw std::out_of_range("Topology: path index out of range");
  }
  out.push_back(static_cast<LinkId>(src));  // egress port
  for (std::uint32_t p = path_off_[path]; p < path_off_[path + 1]; ++p) {
    out.push_back(path_links_[p]);
  }
  out.push_back(static_cast<LinkId>(nodes_ + dst));  // ingress port
}

// --- leaf-spine -------------------------------------------------------

std::shared_ptr<const Topology> Topology::leaf_spine(
    std::size_t racks, std::size_t hosts_per_rack, std::size_t spines,
    double host_rate, double oversubscription) {
  if (racks == 0 || hosts_per_rack == 0 || spines == 0) {
    throw std::invalid_argument("leaf_spine: empty dimension");
  }
  if (host_rate <= 0.0 || oversubscription <= 0.0) {
    throw std::invalid_argument("leaf_spine: rates must be > 0");
  }
  const std::size_t n = racks * hosts_per_rack;
  TopologyBuilder b(TopologyKind::kLeafSpine, n, racks + spines);
  const auto tor = [&](std::size_t rack) {
    return static_cast<std::uint32_t>(n + rack);
  };
  const auto spine = [&](std::size_t s) {
    return static_cast<std::uint32_t>(n + racks + s);
  };

  std::vector<std::uint32_t> attachment(n);
  for (std::size_t i = 0; i < n; ++i) attachment[i] = tor(i / hosts_per_rack);
  b.add_host_ports(attachment, host_rate);

  // Uplinks [2n, 2n + R*S), downlinks [2n + R*S, 2n + 2*R*S), with
  // per-uplink capacity splitting the rack's oversubscribed aggregate across
  // the spines.
  const double uplink_rate = static_cast<double>(hosts_per_rack) * host_rate /
                             (oversubscription * static_cast<double>(spines));
  std::vector<Topology::LinkId> up(racks * spines), down(racks * spines);
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t s = 0; s < spines; ++s) {
      up[r * spines + s] = b.add_link(tor(r), spine(s), uplink_rate);
    }
  }
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t s = 0; s < spines; ++s) {
      down[r * spines + s] = b.add_link(spine(s), tor(r), uplink_rate);
    }
  }

  const std::uint32_t intra = b.add_group({{}});
  std::vector<std::uint32_t> cross(racks * racks, kNoGroup);
  for (std::size_t rs = 0; rs < racks; ++rs) {
    for (std::size_t rd = 0; rd < racks; ++rd) {
      if (rs == rd) continue;
      std::vector<std::vector<Topology::LinkId>> paths;
      paths.reserve(spines);
      for (std::size_t s = 0; s < spines; ++s) {
        paths.push_back({up[rs * spines + s], down[rd * spines + s]});
      }
      cross[rs * racks + rd] = b.add_group(paths);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::size_t ri = i / hosts_per_rack, rj = j / hosts_per_rack;
      b.set_pair_group(i, j, ri == rj ? intra : cross[ri * racks + rj]);
    }
  }
  return b.finish();
}

// --- fat-tree ---------------------------------------------------------

std::shared_ptr<const Topology> Topology::fat_tree(
    std::size_t k, double host_rate, double core_oversubscription) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat_tree: k must be even and >= 2");
  }
  if (host_rate <= 0.0 || core_oversubscription <= 0.0) {
    throw std::invalid_argument("fat_tree: rates must be > 0");
  }
  const std::size_t h = k / 2;          // half-k: hosts per edge, aggs per pod
  const std::size_t pods = k;
  const std::size_t n = k * h * h;      // k^3 / 4 hosts
  const std::size_t edges = pods * h;   // edge switches, globally indexed
  const std::size_t aggs = pods * h;
  const std::size_t cores = h * h;
  TopologyBuilder b(TopologyKind::kFatTree, n, edges + aggs + cores);
  const auto edge_sw = [&](std::size_t pod, std::size_t e) {
    return static_cast<std::uint32_t>(n + pod * h + e);
  };
  const auto agg_sw = [&](std::size_t pod, std::size_t a) {
    return static_cast<std::uint32_t>(n + edges + pod * h + a);
  };
  const auto core_sw = [&](std::size_t a, std::size_t m) {
    return static_cast<std::uint32_t>(n + edges + aggs + a * h + m);
  };

  // Host i lives in pod i / h^2, under edge (i mod h^2) / h.
  std::vector<std::uint32_t> attachment(n);
  for (std::size_t i = 0; i < n; ++i) {
    attachment[i] = edge_sw(i / (h * h), (i % (h * h)) / h);
  }
  b.add_host_ports(attachment, host_rate);

  // Edge<->agg links, then agg<->core (core (a, m) connects to agg index a
  // of every pod — the standard wiring).
  std::vector<Topology::LinkId> ea_up(edges * h), ea_down(edges * h);
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < h; ++e) {
      for (std::size_t a = 0; a < h; ++a) {
        ea_up[(p * h + e) * h + a] =
            b.add_link(edge_sw(p, e), agg_sw(p, a), host_rate);
      }
    }
  }
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < h; ++e) {
      for (std::size_t a = 0; a < h; ++a) {
        ea_down[(p * h + e) * h + a] =
            b.add_link(agg_sw(p, a), edge_sw(p, e), host_rate);
      }
    }
  }
  const double core_rate = host_rate / core_oversubscription;
  std::vector<Topology::LinkId> ac_up(pods * h * h), ac_down(pods * h * h);
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t a = 0; a < h; ++a) {
      for (std::size_t m = 0; m < h; ++m) {
        ac_up[(p * h + a) * h + m] =
            b.add_link(agg_sw(p, a), core_sw(a, m), core_rate);
      }
    }
  }
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t a = 0; a < h; ++a) {
      for (std::size_t m = 0; m < h; ++m) {
        ac_down[(p * h + a) * h + m] =
            b.add_link(core_sw(a, m), agg_sw(p, a), core_rate);
      }
    }
  }

  // Groups keyed by the (global edge, global edge) pair.
  const std::uint32_t intra = b.add_group({{}});
  std::vector<std::uint32_t> group(edges * edges, kNoGroup);
  for (std::size_t ps = 0; ps < pods; ++ps) {
    for (std::size_t es = 0; es < h; ++es) {
      const std::size_t ge_s = ps * h + es;
      for (std::size_t pd = 0; pd < pods; ++pd) {
        for (std::size_t ed = 0; ed < h; ++ed) {
          const std::size_t ge_d = pd * h + ed;
          if (ge_s == ge_d) {
            group[ge_s * edges + ge_d] = intra;
            continue;
          }
          std::vector<std::vector<Topology::LinkId>> paths;
          if (ps == pd) {
            // Same pod: one path per aggregation switch.
            paths.reserve(h);
            for (std::size_t a = 0; a < h; ++a) {
              paths.push_back(
                  {ea_up[ge_s * h + a], ea_down[ge_d * h + a]});
            }
          } else {
            // Inter-pod: one path per core, i.e. per (agg index, core slot).
            paths.reserve(h * h);
            for (std::size_t a = 0; a < h; ++a) {
              for (std::size_t m = 0; m < h; ++m) {
                paths.push_back({ea_up[ge_s * h + a],
                                 ac_up[(ps * h + a) * h + m],
                                 ac_down[(pd * h + a) * h + m],
                                 ea_down[ge_d * h + a]});
              }
            }
          }
          group[ge_s * edges + ge_d] = b.add_group(paths);
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ge_i = (i / (h * h)) * h + (i % (h * h)) / h;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::size_t ge_j = (j / (h * h)) * h + (j % (h * h)) / h;
      b.set_pair_group(i, j, group[ge_i * edges + ge_j]);
    }
  }
  return b.finish();
}

// --- waxman -----------------------------------------------------------

namespace {

/// Loop-free router paths, shortest (by hops) first: Yen's algorithm over a
/// BFS base, with deterministic lexicographic tie-breaking — identical
/// inputs give identical route-sets on every run and thread count.
class KShortestPaths {
 public:
  explicit KShortestPaths(const std::vector<std::vector<std::uint32_t>>& adj)
      : adj_(adj) {}

  std::vector<std::vector<std::uint32_t>> find(std::uint32_t src,
                                               std::uint32_t dst,
                                               std::size_t k) const {
    std::vector<std::vector<std::uint32_t>> result;
    const auto first = bfs(src, dst, {}, {});
    if (first.empty()) return result;
    result.push_back(first);
    // Candidate pool ordered (length, lexicographic) for determinism.
    std::vector<std::vector<std::uint32_t>> candidates;
    while (result.size() < k) {
      const auto& base = result.back();
      for (std::size_t spur = 0; spur + 1 < base.size(); ++spur) {
        const std::vector<std::uint32_t> root(base.begin(),
                                              base.begin() + spur + 1);
        // Ban edges leaving the spur node along any already-found path
        // sharing the root, and every root node except the spur itself.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> banned_edges;
        for (const auto& p : result) {
          if (p.size() > spur + 1 &&
              std::equal(root.begin(), root.end(), p.begin())) {
            banned_edges.emplace_back(p[spur], p[spur + 1]);
          }
        }
        std::vector<std::uint32_t> banned_nodes(root.begin(), root.end() - 1);
        const auto tail = bfs(base[spur], dst, banned_edges, banned_nodes);
        if (tail.empty()) continue;
        std::vector<std::uint32_t> path(root.begin(), root.end() - 1);
        path.insert(path.end(), tail.begin(), tail.end());
        if (std::find(result.begin(), result.end(), path) == result.end() &&
            std::find(candidates.begin(), candidates.end(), path) ==
                candidates.end()) {
          candidates.push_back(std::move(path));
        }
      }
      if (candidates.empty()) break;
      const auto best = std::min_element(
          candidates.begin(), candidates.end(),
          [](const auto& a, const auto& b) {
            if (a.size() != b.size()) return a.size() < b.size();
            return a < b;
          });
      result.push_back(*best);
      candidates.erase(best);
    }
    return result;
  }

 private:
  std::vector<std::uint32_t> bfs(
      std::uint32_t src, std::uint32_t dst,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& banned_edges,
      const std::vector<std::uint32_t>& banned_nodes) const {
    constexpr std::uint32_t kUnset = 0xffffffffu;
    std::vector<std::uint32_t> parent(adj_.size(), kUnset);
    std::vector<std::uint8_t> blocked(adj_.size(), 0);
    for (const auto node : banned_nodes) blocked[node] = 1;
    if (blocked[src] || blocked[dst]) return {};
    std::queue<std::uint32_t> frontier;
    frontier.push(src);
    parent[src] = src;
    while (!frontier.empty() && parent[dst] == kUnset) {
      const std::uint32_t u = frontier.front();
      frontier.pop();
      for (const std::uint32_t v : adj_[u]) {  // neighbors sorted ascending
        if (parent[v] != kUnset || blocked[v]) continue;
        if (std::find(banned_edges.begin(), banned_edges.end(),
                      std::make_pair(u, v)) != banned_edges.end()) {
          continue;
        }
        parent[v] = u;
        frontier.push(v);
      }
    }
    if (parent[dst] == kUnset) return {};
    std::vector<std::uint32_t> path;
    for (std::uint32_t v = dst; v != src; v = parent[v]) path.push_back(v);
    path.push_back(src);
    std::reverse(path.begin(), path.end());
    return path;
  }

  const std::vector<std::vector<std::uint32_t>>& adj_;
};

}  // namespace

std::shared_ptr<const Topology> Topology::waxman(std::size_t hosts,
                                                 double host_rate,
                                                 std::uint64_t seed,
                                                 const WaxmanOptions& options) {
  if (hosts == 0) throw std::invalid_argument("waxman: no hosts");
  if (options.routers == 0 || options.routers > hosts) {
    throw std::invalid_argument("waxman: routers must be in [1, hosts]");
  }
  if (options.alpha <= 0.0 || options.alpha > 1.0 || options.beta <= 0.0 ||
      options.beta > 1.0) {
    throw std::invalid_argument("waxman: alpha/beta must be in (0, 1]");
  }
  if (options.route_k == 0 || options.trunk_scale <= 0.0 || host_rate <= 0.0) {
    throw std::invalid_argument("waxman: route_k/trunk_scale must be > 0");
  }
  const std::size_t r = options.routers;

  // Seeded geometry + edge draw. The stream constant separates this use of
  // the seed from other derive_seed users.
  util::Pcg32 rng(util::derive_seed(seed, 131), 131);
  std::vector<double> x(r), y(r);
  for (std::size_t i = 0; i < r; ++i) {
    x[i] = rng.uniform01();
    y[i] = rng.uniform01();
  }
  const double diameter = std::sqrt(2.0);  // unit square
  std::vector<std::vector<std::uint32_t>> adj(r);
  auto connect = [&](std::size_t u, std::size_t v) {
    adj[u].push_back(static_cast<std::uint32_t>(v));
    adj[v].push_back(static_cast<std::uint32_t>(u));
  };
  for (std::size_t u = 0; u < r; ++u) {
    for (std::size_t v = u + 1; v < r; ++v) {
      const double d = std::hypot(x[u] - x[v], y[u] - y[v]);
      if (rng.uniform01() <
          options.alpha * std::exp(-d / (options.beta * diameter))) {
        connect(u, v);
      }
    }
  }
  // Patch connectivity deterministically: link every later component to the
  // nearest router of an earlier one (BRITE regenerates; patching keeps the
  // draw and stays seed-stable).
  {
    std::vector<std::uint32_t> comp(r, 0xffffffffu);
    std::uint32_t ncomp = 0;
    for (std::size_t s = 0; s < r; ++s) {
      if (comp[s] != 0xffffffffu) continue;
      std::queue<std::uint32_t> q;
      q.push(static_cast<std::uint32_t>(s));
      comp[s] = ncomp;
      while (!q.empty()) {
        const auto u = q.front();
        q.pop();
        for (const auto v : adj[u]) {
          if (comp[v] == 0xffffffffu) {
            comp[v] = ncomp;
            q.push(v);
          }
        }
      }
      if (ncomp > 0) {
        // First router of this component joins its nearest router in an
        // earlier component.
        std::size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t v = 0; v < r; ++v) {
          if (comp[v] >= ncomp) continue;
          const double d = std::hypot(x[s] - x[v], y[s] - y[v]);
          if (d < best_d) {
            best_d = d;
            best = v;
          }
        }
        connect(s, best);
      }
      ++ncomp;
    }
  }
  for (auto& neighbors : adj) std::sort(neighbors.begin(), neighbors.end());

  const std::size_t hosts_per_router = (hosts + r - 1) / r;
  const double trunk_rate = options.trunk_scale *
                            static_cast<double>(hosts_per_router) * host_rate;

  TopologyBuilder b(TopologyKind::kIrregular, hosts, r);
  std::vector<std::uint32_t> attachment(hosts);
  for (std::size_t i = 0; i < hosts; ++i) {
    attachment[i] = static_cast<std::uint32_t>(hosts + i % r);
  }
  b.add_host_ports(attachment, host_rate);

  // Two directed links per undirected trunk; trunk_link[u][v] = id of u->v.
  std::vector<std::vector<Topology::LinkId>> trunk(
      r, std::vector<Topology::LinkId>(r, 0));
  for (std::size_t u = 0; u < r; ++u) {
    for (const auto v : adj[u]) {
      trunk[u][v] = b.add_link(static_cast<std::uint32_t>(hosts + u),
                               static_cast<std::uint32_t>(hosts + v),
                               trunk_rate);
    }
  }

  const KShortestPaths ksp(adj);
  const std::uint32_t intra = b.add_group({{}});
  std::vector<std::uint32_t> group(r * r, kNoGroup);
  for (std::size_t u = 0; u < r; ++u) {
    for (std::size_t v = 0; v < r; ++v) {
      if (u == v) {
        group[u * r + v] = intra;
        continue;
      }
      const auto router_paths = ksp.find(static_cast<std::uint32_t>(u),
                                         static_cast<std::uint32_t>(v),
                                         options.route_k);
      if (router_paths.empty()) {
        throw std::logic_error("waxman: disconnected despite patching");
      }
      std::vector<std::vector<Topology::LinkId>> paths;
      paths.reserve(router_paths.size());
      for (const auto& rp : router_paths) {
        std::vector<Topology::LinkId> links;
        links.reserve(rp.size() - 1);
        for (std::size_t s = 0; s + 1 < rp.size(); ++s) {
          links.push_back(trunk[rp[s]][rp[s + 1]]);
        }
        paths.push_back(std::move(links));
      }
      group[u * r + v] = b.add_group(paths);
    }
  }
  for (std::size_t i = 0; i < hosts; ++i) {
    for (std::size_t j = 0; j < hosts; ++j) {
      if (i != j) b.set_pair_group(i, j, group[(i % r) * r + (j % r)]);
    }
  }
  return b.finish();
}

// --- spec parsing -----------------------------------------------------

namespace {

double parse_double(std::string_view key, std::string_view value) {
  try {
    return std::stod(std::string(value));
  } catch (const std::exception&) {
    throw std::invalid_argument("TopologySpec: bad value for " +
                                std::string(key));
  }
}

std::size_t parse_size(std::string_view key, std::string_view value) {
  std::size_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw std::invalid_argument("TopologySpec: bad value for " +
                                std::string(key));
  }
  return out;
}

}  // namespace

TopologySpec TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view kind = text.substr(0, colon);
  if (kind == "leafspine") {
    spec.kind = TopologyKind::kLeafSpine;
  } else if (kind == "fattree") {
    spec.kind = TopologyKind::kFatTree;
  } else if (kind == "waxman") {
    spec.kind = TopologyKind::kIrregular;
  } else {
    throw std::invalid_argument("TopologySpec: unknown kind: " +
                                std::string(kind));
  }
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("TopologySpec: expected key=value, got " +
                                  std::string(item));
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "racks") {
      spec.racks = parse_size(key, value);
    } else if (key == "hosts") {
      spec.hosts = parse_size(key, value);
    } else if (key == "spines") {
      spec.spines = parse_size(key, value);
    } else if (key == "oversub") {
      spec.oversub = parse_double(key, value);
    } else if (key == "k") {
      spec.fat_k = parse_size(key, value);
    } else if (key == "core-scale") {
      spec.core_scale = parse_double(key, value);
    } else if (key == "nodes") {
      spec.nodes = parse_size(key, value);
    } else if (key == "routers") {
      spec.waxman.routers = parse_size(key, value);
    } else if (key == "seed") {
      spec.seed = parse_size(key, value);
    } else if (key == "alpha") {
      spec.waxman.alpha = parse_double(key, value);
    } else if (key == "beta") {
      spec.waxman.beta = parse_double(key, value);
    } else if (key == "trunk-scale") {
      spec.waxman.trunk_scale = parse_double(key, value);
    } else if (key == "paths") {
      spec.waxman.route_k = parse_size(key, value);
    } else {
      throw std::invalid_argument("TopologySpec: unknown key: " +
                                  std::string(key));
    }
  }
  return spec;
}

namespace {

std::string trimmed_double(double v) {
  std::string s = std::to_string(v);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

std::string TopologySpec::to_string() const {
  switch (kind) {
    case TopologyKind::kLeafSpine:
      return "leafspine:racks=" + std::to_string(racks) +
             ",hosts=" + std::to_string(hosts) +
             ",spines=" + std::to_string(spines) +
             ",oversub=" + trimmed_double(oversub);
    case TopologyKind::kFatTree:
      return "fattree:k=" + std::to_string(fat_k) +
             ",core-scale=" + trimmed_double(core_scale);
    case TopologyKind::kIrregular:
      return "waxman:nodes=" + std::to_string(nodes) +
             ",routers=" + std::to_string(waxman.routers) +
             ",seed=" + std::to_string(seed) +
             ",alpha=" + trimmed_double(waxman.alpha) +
             ",beta=" + trimmed_double(waxman.beta) +
             ",trunk-scale=" + trimmed_double(waxman.trunk_scale) +
             ",paths=" + std::to_string(waxman.route_k);
  }
  throw std::logic_error("TopologySpec: unknown kind");
}

std::size_t TopologySpec::node_count() const {
  switch (kind) {
    case TopologyKind::kLeafSpine:
      return racks * hosts;
    case TopologyKind::kFatTree:
      return fat_k * fat_k * fat_k / 4;
    case TopologyKind::kIrregular:
      return nodes;
  }
  throw std::logic_error("TopologySpec: unknown kind");
}

std::shared_ptr<const Topology> make_topology(const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologyKind::kLeafSpine:
      return Topology::leaf_spine(spec.racks, spec.hosts, spec.spines,
                                  spec.host_rate, spec.oversub);
    case TopologyKind::kFatTree:
      return Topology::fat_tree(spec.fat_k, spec.host_rate, spec.core_scale);
    case TopologyKind::kIrregular:
      return Topology::waxman(spec.nodes, spec.host_rate, spec.seed,
                              spec.waxman);
  }
  throw std::logic_error("make_topology: unknown kind");
}

// --- routed adapter ---------------------------------------------------

RoutedTopology::RoutedTopology(std::shared_ptr<const Topology> topology,
                               RouteChoice choice)
    : topology_(std::move(topology)), choice_(std::move(choice)) {
  if (!topology_) throw std::invalid_argument("RoutedTopology: null topology");
  const std::size_t n = topology_->nodes();
  if (choice_.size() != n * n) {
    throw std::invalid_argument("RoutedTopology: choice size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && choice_[i * n + j] >=
                        topology_->path_count(static_cast<std::uint32_t>(i),
                                              static_cast<std::uint32_t>(j))) {
        throw std::out_of_range("RoutedTopology: path index out of range");
      }
    }
  }
}

void RoutedTopology::append_links(std::uint32_t src, std::uint32_t dst,
                                  std::vector<LinkId>& out) const {
  assert(src != dst && "Network::append_links requires src != dst");
  topology_->append_path_links(src, dst, choice_[src * topology_->nodes() + dst],
                               out);
}

// --- basic routing policies ------------------------------------------

RouteChoice route_ecmp(const Topology& topology) {
  const std::size_t n = topology.nodes();
  RouteChoice choice(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        choice[i * n + j] = static_cast<std::uint32_t>(
            (i + j) % topology.path_count(static_cast<std::uint32_t>(i),
                                          static_cast<std::uint32_t>(j)));
      }
    }
  }
  return choice;
}

RouteChoice route_collapsed(const Topology& topology) {
  const std::size_t n = topology.nodes();
  return RouteChoice(n * n, 0);
}

RouteChoice route_greedy(const Topology& topology, const Demand& demand) {
  const std::size_t n = topology.nodes();
  if (demand.nodes() != n) {
    throw std::invalid_argument("route_greedy: size mismatch");
  }
  RouteChoice choice = route_ecmp(topology);

  struct Entry {
    std::uint32_t src, dst;
    double volume;
  };
  std::vector<Entry> pending;
  {
    const std::span<const std::uint32_t> srcs = demand.srcs();
    const std::span<const std::uint32_t> dsts = demand.dsts();
    const std::span<const double> vols = demand.volumes();
    pending.reserve(vols.size());
    for (std::size_t k = 0; k < vols.size(); ++k) {
      pending.push_back({srcs[k], dsts[k], vols[k]});
    }
  }
  std::sort(pending.begin(), pending.end(), [](const Entry& a, const Entry& b) {
    if (a.volume != b.volume) return a.volume > b.volume;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });

  std::vector<double> load(topology.link_count(), 0.0);
  std::vector<Topology::LinkId> scratch;
  for (const Entry& e : pending) {
    const std::size_t paths = topology.path_count(e.src, e.dst);
    std::uint32_t best = 0;
    double best_util = std::numeric_limits<double>::infinity();
    for (std::uint32_t k = 0; k < paths; ++k) {
      scratch.clear();
      topology.append_path_links(e.src, e.dst, k, scratch);
      double util = 0.0;
      for (const auto l : scratch) {
        util = std::max(util,
                        (load[l] + e.volume) / topology.link_capacity(l));
      }
      if (util < best_util) {
        best_util = util;
        best = k;
      }
    }
    choice[e.src * n + e.dst] = best;
    scratch.clear();
    topology.append_path_links(e.src, e.dst, best, scratch);
    for (const auto l : scratch) load[l] += e.volume;
  }
  return choice;
}

RouteChoice route_greedy(const Topology& topology, const FlowMatrix& flows) {
  if (flows.nodes() != topology.nodes()) {
    throw std::invalid_argument("route_greedy: size mismatch");
  }
  return route_greedy(topology, Demand::from_matrix(flows));
}

}  // namespace ccf::net
