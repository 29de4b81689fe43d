#include "join/rack_scheduler.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "opt/bounds.hpp"
#include "opt/greedy.hpp"

namespace ccf::join {

RackCcfScheduler::RackCcfScheduler(const net::Topology& topology) {
  // On a leaf-spine, host i's egress port ends at its rack's ToR, graph node
  // n + rack, and the graph holds n hosts, the ToRs and the spines.
  const std::size_t n = topology.nodes();
  rack_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    rack_of_[i] = static_cast<std::uint32_t>(
        topology.link_ends(static_cast<net::Topology::LinkId>(i)).head - n);
  }
  racks_ = rack_of_.back() + 1;
  if (topology.kind() != net::TopologyKind::kLeafSpine ||
      topology.graph_nodes() != n + racks_ + 1) {
    throw std::invalid_argument(
        "RackCcfScheduler: needs a one-spine leaf-spine topology");
  }
  host_rate_ = topology.link_capacity(0);  // host 0's egress port
  uplink_rate_ = topology.link_capacity(  // rack 0's uplink
      static_cast<net::Topology::LinkId>(2 * n));
}

Assignment RackCcfScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  if (n != rack_of_.size()) {
    throw std::invalid_argument(
        "RackCcfScheduler: matrix nodes != topology nodes");
  }
  const std::size_t r = racks_;
  const std::size_t p = m.partitions();
  const double ce = host_rate_;
  const double cu = uplink_rate_;

  const opt::PartitionStats stats(m);

  // Running loads in bytes.
  auto [egress, ingress] = opt::initial_loads(problem);
  std::vector<double> up_out(r, 0.0), up_in(r, 0.0);
  if (initial_flows_ != nullptr) {
    if (initial_flows_->nodes() != n) {
      throw std::invalid_argument("RackCcfScheduler: initial flows size");
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double v = initial_flows_->volume(i, j);
        if (v <= 0.0) continue;
        const std::size_t ri = rack_of_[i];
        const std::size_t rj = rack_of_[j];
        if (ri != rj) {
          up_out[ri] += v;
          up_in[rj] += v;
        }
      }
    }
  }

  std::vector<double> rack_mass(r);  // per-partition bytes per rack
  Assignment dest(p, 0);
  // Partition order: descending max chunk, as in Algorithm 1.
  for (const std::uint32_t k : opt::descending_order(stats.max)) {
    const double sk = stats.total[k];
    const std::span<const double> row = m.partition_row(k);
    std::fill(rack_mass.begin(), rack_mass.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      rack_mass[rack_of_[i]] += row[i];
    }

    // Candidate-independent top-2s (normalized to seconds by capacity).
    opt::Top2 t_egress;   // (egress_i + h_i)/ce over hosts
    opt::Top2 t_ingress;  // ingress_j/ce over hosts
    for (std::size_t i = 0; i < n; ++i) {
      t_egress.feed(i, (egress[i] + row[i]) / ce);
      t_ingress.feed(i, ingress[i] / ce);
    }
    opt::Top2 t_up_out;  // (up_out_r + rack_mass_r)/cu over racks
    opt::Top2 t_up_in;   // up_in_r/cu over racks
    for (std::size_t rr = 0; rr < r; ++rr) {
      t_up_out.feed(rr, (up_out[rr] + rack_mass[rr]) / cu);
      t_up_in.feed(rr, up_in[rr] / cu);
    }

    double best_t = 0.0;
    std::uint32_t best_d = 0;
    bool first = true;
    for (std::uint32_t d = 0; d < n; ++d) {
      const std::size_t rd = rack_of_[d];
      // Host egress: every holder i != d sends; d's own port stays put.
      const double eg = std::max(t_egress.excluding(d), egress[d] / ce);
      // Host ingress: d gains S_k - h_dk.
      const double in =
          std::max(t_ingress.excluding(d),
                   (ingress[d] + (sk - row[d])) / ce);
      // Uplink out: every rack other than rd ships its whole rack mass up;
      // rd's uplink is untouched by this partition.
      const double uo = std::max(t_up_out.excluding(rd), up_out[rd] / cu);
      // Uplink in: rd receives everything outside it; other racks unchanged.
      const double ui = std::max(t_up_in.excluding(rd),
                                 (up_in[rd] + (sk - rack_mass[rd])) / cu);
      const double t = std::max(std::max(eg, in), std::max(uo, ui));
      if (first || t < best_t) {
        best_t = t;
        best_d = d;
        first = false;
      }
    }

    // Commit.
    const std::size_t rd = rack_of_[best_d];
    dest[k] = best_d;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != best_d) egress[i] += row[i];
    }
    ingress[best_d] += sk - row[best_d];
    for (std::size_t rr = 0; rr < r; ++rr) {
      if (rr != rd) up_out[rr] += rack_mass[rr];
    }
    up_in[rd] += sk - rack_mass[rd];
  }
  return dest;
}

}  // namespace ccf::join
