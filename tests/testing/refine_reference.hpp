// The local search as it was before it kept an exact load state: every
// partition, every round, is taken out of the loads by subtraction, given
// the full O(n) top-2 scan, and put back by addition. opt::refine (the
// production pass) must reach the same assignments on instances without
// tied chunks; on tied ones the subtract/add drift here decides near-ties
// that the exact loads there do not see. Test support only: no production
// code calls it.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "opt/bounds.hpp"
#include "opt/local_search.hpp"
#include "opt/model.hpp"

namespace ccf::testing {

inline opt::LocalSearchResult refine_reference(
    const opt::AssignmentProblem& problem, const opt::PartitionStats& stats,
    opt::Assignment& dest, opt::LocalSearchOptions options = {}) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();
  if (dest.size() != p) {
    throw std::invalid_argument("refine: assignment size != partitions");
  }

  opt::LoadProfile loads = opt::evaluate(problem, dest);
  opt::LocalSearchResult result;
  result.initial_T = result.final_T = loads.makespan();
  const double lb = opt::root_lower_bound(problem, stats);
  const std::vector<double>& part_total = stats.total;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    bool moved = false;
    for (std::size_t k = 0; k < p; ++k) {
      if (result.final_T <= lb * (1.0 + options.bound_tolerance)) {
        return result;
      }
      const std::uint32_t old_d = dest[k];
      const std::span<const double> row = m.partition_row(k);
      // Temporarily remove partition k from the loads.
      for (std::size_t i = 0; i < n; ++i) {
        if (i != old_d) loads.egress[i] -= row[i];
      }
      loads.ingress[old_d] -= part_total[k] - row[old_d];

      // Candidate scoring with the shared O(n) top-2 kernel (bounds.hpp).
      const opt::Top2 eg = opt::top2_sum(loads.egress, row);
      const opt::Top2 in = opt::top2(loads.ingress);

      double best_t = 0.0;
      std::uint32_t best_d = old_d;
      bool first = true;
      for (std::uint32_t d = 0; d < n; ++d) {
        const double t =
            opt::placement_bottleneck(eg, in, loads.egress[d],
                                      loads.ingress[d], part_total[k], row[d],
                                      d);
        if (first || t < best_t || (t == best_t && d == old_d)) {
          best_t = t;
          best_d = d;
          first = false;
        }
      }

      // Re-apply at the chosen destination.
      for (std::size_t i = 0; i < n; ++i) {
        if (i != best_d) loads.egress[i] += row[i];
      }
      loads.ingress[best_d] += part_total[k] - row[best_d];
      if (best_d != old_d && best_t < result.final_T) {
        dest[k] = best_d;
        ++result.moves;
        moved = true;
        result.final_T = loads.makespan();
      } else if (best_d != old_d) {
        // Move does not improve the global bottleneck: revert.
        for (std::size_t i = 0; i < n; ++i) {
          if (i != best_d) loads.egress[i] -= row[i];
        }
        loads.ingress[best_d] -= part_total[k] - row[best_d];
        for (std::size_t i = 0; i < n; ++i) {
          if (i != old_d) loads.egress[i] += row[i];
        }
        loads.ingress[old_d] += part_total[k] - row[old_d];
        dest[k] = old_d;
      }
    }
    if (!moved) break;
  }
  result.final_T = loads.makespan();
  return result;
}

}  // namespace ccf::testing
