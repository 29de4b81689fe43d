#include "join/flows.hpp"

#include <stdexcept>

namespace ccf::join {

net::FlowMatrix assignment_flows(const data::ChunkView& matrix,
                                 std::span<const std::uint32_t> dest) {
  return assignment_flows(matrix, dest, net::FlowMatrix(matrix.nodes()));
}

net::FlowMatrix assignment_flows(const data::ChunkView& matrix,
                                 std::span<const std::uint32_t> dest,
                                 const net::FlowMatrix& initial) {
  if (dest.size() != matrix.partitions()) {
    throw std::invalid_argument("assignment_flows: assignment size mismatch");
  }
  if (initial.nodes() != matrix.nodes()) {
    throw std::invalid_argument("assignment_flows: initial flows size mismatch");
  }
  net::FlowMatrix flows = initial;
  const std::size_t n = matrix.nodes();
  for (std::size_t k = 0; k < matrix.partitions(); ++k) {
    const std::uint32_t d = dest[k];
    if (d >= n) {
      throw std::invalid_argument("assignment_flows: destination out of range");
    }
    const std::span<const double> row = matrix.partition_row(k);
    for (std::size_t i = 0; i < n; ++i) {
      if (row[i] > 0.0) flows.add(i, d, row[i]);
    }
  }
  return flows;
}

}  // namespace ccf::join
