#include "opt/local_search.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "opt/bounds.hpp"
#include "opt/greedy.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ccf::opt {

LocalSearchResult refine(const AssignmentProblem& problem, Assignment& dest,
                         LocalSearchOptions options) {
  problem.validate();
  return refine(problem, PartitionStats(problem.matrix), dest, options);
}

LocalSearchResult refine(const AssignmentProblem& problem,
                         const PartitionStats& stats, Assignment& dest,
                         LocalSearchOptions options) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();
  if (dest.size() != p) {
    throw std::invalid_argument("refine: assignment size != partitions");
  }

  LoadProfile loads = evaluate(problem, dest);
  LocalSearchResult result;
  result.initial_T = result.final_T = loads.makespan();
  const double lb = root_lower_bound(problem, stats);
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
      const Top2 eg = top2_sum(loads.egress, row);
      const Top2 in = top2(loads.ingress);

      double best_t = 0.0;
      std::uint32_t best_d = old_d;
      bool first = true;
      for (std::uint32_t d = 0; d < n; ++d) {
        const double t =
            placement_bottleneck(eg, in, loads.egress[d], loads.ingress[d],
                                 part_total[k], row[d], d);
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

GraspResult grasp(const AssignmentProblem& problem, GraspOptions options) {
  problem.validate();
  return grasp(problem, PartitionStats(problem.matrix), options);
}

GraspResult grasp(const AssignmentProblem& problem, const PartitionStats& stats,
                  GraspOptions options) {
  problem.validate();
  const std::size_t starts = std::max<std::size_t>(1, options.starts);
  const std::size_t rcl = std::max<std::size_t>(1, options.rcl);

  struct Start {
    Assignment dest;
    double T = 0.0;
  };
  std::vector<Start> runs(starts);
  util::parallel_for(
      starts,
      [&](std::size_t s) {
        // Start 0 is Algorithm 1 exactly; the others perturb each sort key
        // by (1 + sort_noise·u) and pick among the rcl best destinations,
        // all drawn from the start's own stream.
        Assignment dest;
        if (s == 0) {
          dest = greedy(problem, stats);
        } else {
          util::Pcg32 rng(util::derive_seed(options.seed, s), s);
          std::vector<double> key = stats.max;
          for (double& v : key) v *= 1.0 + options.sort_noise * rng.uniform01();
          dest = greedy(problem, stats, {.rng = &rng, .rcl = rcl}, key);
        }
        runs[s].T = refine(problem, stats, dest, options.refine).final_T;
        runs[s].dest = std::move(dest);
      },
      options.threads);

  // Argmin over the starts via the shared chunked reduction. Chunks combine
  // in ascending index order and ties keep the earlier start (strict <), so
  // the winner is independent of thread count.
  struct BestStart {
    double T = std::numeric_limits<double>::infinity();
    std::size_t s = 0;
  };
  const BestStart best = util::parallel_reduce(
      starts, /*grain=*/64, BestStart{},
      [&](std::size_t b, std::size_t e) {
        BestStart acc;
        for (std::size_t s = b; s < e; ++s) {
          if (runs[s].T < acc.T) acc = BestStart{runs[s].T, s};
        }
        return acc;
      },
      [](BestStart a, BestStart b) { return b.T < a.T ? b : a; },
      options.threads);

  GraspResult result;
  result.starts = starts;
  result.best_start = best.s;
  result.dest = std::move(runs[best.s].dest);
  result.T = runs[best.s].T;
  return result;
}

}  // namespace ccf::opt
