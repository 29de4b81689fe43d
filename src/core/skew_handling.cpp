#include "core/skew_handling.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

namespace ccf::core {

opt::AssignmentProblem PreparedInput::problem() const {
  opt::AssignmentProblem p;
  p.matrix = residual;
  p.initial_egress = initial_egress;
  p.initial_ingress = initial_ingress;
  return p;
}

PreparedInput apply_partial_duplication(const data::Workload& workload,
                                        bool enable) {
  const data::ChunkMatrix& matrix = workload.matrix;
  const std::size_t n = matrix.nodes();
  PreparedInput out{matrix, net::FlowMatrix(n), std::vector<double>(n, 0.0),
                    std::vector<double>(n, 0.0), 0.0, 0.0, false};
  const data::SkewInfo& skew = workload.skew;
  if (!enable || !skew.present) return out;

  if (skew.skewed_bytes_per_node.size() != n) {
    throw std::invalid_argument("apply_partial_duplication: skew size mismatch");
  }
  const std::size_t hot = skew.hot_partition;
  if (hot >= matrix.partitions()) {
    throw std::invalid_argument("apply_partial_duplication: bad hot partition");
  }
  const std::span<const double> source = matrix.partition_row(hot);
  std::vector<double> row(source.begin(), source.end());

  // Pin the skewed probe-side bytes: remove them from the hot partition's
  // chunks — they stay where they are and cost nothing.
  for (std::size_t i = 0; i < n; ++i) {
    const double pinned = std::min(skew.skewed_bytes_per_node[i], row[i]);
    row[i] -= pinned;
    out.pinned_local_bytes += pinned;
  }

  // Broadcast the build-side hot tuples from their holder to everyone else.
  const std::size_t src = skew.broadcast_source;
  if (src >= n) {
    throw std::invalid_argument("apply_partial_duplication: bad broadcast source");
  }
  if (skew.broadcast_bytes > 0.0) {
    // The broadcast tuples leave the normal redistribution path.
    const double removed = std::min(skew.broadcast_bytes, row[src]);
    row[src] -= removed;
    out.broadcast_removed_bytes = removed;
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      out.initial_flows.add(src, dst, skew.broadcast_bytes);
      out.initial_egress[src] += skew.broadcast_bytes;
      out.initial_ingress[dst] += skew.broadcast_bytes;
    }
  }
  out.residual = data::ChunkView(matrix, hot, std::move(row));
  out.skew_handled = true;
  return out;
}

}  // namespace ccf::core
