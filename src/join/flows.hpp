// Turning a placement decision into network flows: the bridge between the
// application-level scheduler output (x_{jk}) and the coflow the network
// layer executes (f_{ij} = [src, des, v], §II-B).
#pragma once

#include <cstdint>
#include <span>

#include "data/chunk_matrix.hpp"
#include "net/flow.hpp"

namespace ccf::join {

/// Aggregate flow matrix induced by an assignment: node i sends h_{ik} to
/// dest[k] for every partition k (diagonal = local moves, zero traffic).
net::FlowMatrix assignment_flows(const data::ChunkView& matrix,
                                 std::span<const std::uint32_t> dest);

/// Same, starting from pre-existing flows (the skew handler's broadcasts).
net::FlowMatrix assignment_flows(const data::ChunkView& matrix,
                                 std::span<const std::uint32_t> dest,
                                 const net::FlowMatrix& initial);

}  // namespace ccf::join
