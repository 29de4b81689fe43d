#include "opt/local_search.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "opt/bounds.hpp"
#include "opt/greedy.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ccf::opt {

namespace {

/// The ports of one side whose load equals T: how many, and the first.
struct AtT {
  std::size_t count = 0;
  std::size_t port = 0;
};

AtT ports_at(std::span<const double> loads, double T) noexcept {
  AtT at;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (loads[i] == T && at.count++ == 0) at.port = i;
  }
  return at;
}

}  // namespace

LocalSearchResult refine(const AssignmentProblem& problem, Assignment& dest,
                         LocalSearchOptions options) {
  problem.validate();
  return refine(problem, PartitionStats(problem.matrix), dest, options);
}

LocalSearchResult refine(const AssignmentProblem& problem,
                         const PartitionStats& stats, Assignment& dest,
                         LocalSearchOptions options) {
  LoadProfile loads = evaluate(problem, dest);
  return refine(problem, stats, dest, std::move(loads), options);
}

LocalSearchResult refine(const AssignmentProblem& problem,
                         const PartitionStats& stats, Assignment& dest,
                         LoadProfile loads, LocalSearchOptions options) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();
  if (dest.size() != p) {
    throw std::invalid_argument("refine: assignment size != partitions");
  }
  if (loads.egress.size() != n || loads.ingress.size() != n) {
    throw std::invalid_argument("refine: load profile size != nodes");
  }
  for (const std::uint32_t d : dest) {
    if (d >= n) throw std::invalid_argument("refine: destination out of range");
  }

  LocalSearchResult result;
  result.initial_T = result.final_T = loads.makespan();
  const double lb = root_lower_bound(problem, stats);
  AtT eg_at = ports_at(loads.egress, result.final_T);
  AtT in_at = ports_at(loads.ingress, result.final_T);
  LoadProfile undo;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    ++result.rounds;
    bool moved = false;
    for (std::size_t k = 0; k < p; ++k) {
      const double T = result.final_T;
      if (T <= lb * (1.0 + options.bound_tolerance)) return result;
      // A move lowers one egress port and one ingress port: with two ports
      // at T on a side, none can lower T.
      if (eg_at.count > 1 || in_at.count > 1) break;
      // Only leaving the ingress port at T lowers it, and it must end
      // below T.
      const std::uint32_t a = dest[k];
      if (in_at.count == 1 && a != in_at.port) continue;
      const std::span<const double> row = m.partition_row(k);
      const double sk = stats.total[k];
      if (in_at.count == 1 && !(loads.ingress[a] - (sk - row[a]) < T)) {
        continue;
      }
      if (eg_at.count == 1) {
        // Only landing on the egress port e at T lowers it. egress[e] falls,
        // egress[a] and ingress[e] rise, and all three must end below T.
        const std::size_t e = eg_at.port;
        if (e == a || !(loads.egress[e] - row[e] < T) ||
            !(loads.egress[a] + row[a] < T) ||
            !(loads.ingress[e] + (sk - row[e]) < T)) {
          continue;
        }
      }

      // The full scan, on the loads with k taken out.
      ++result.scanned;
      loads.save(a, undo);
      loads.remove(row, sk, a);
      const Top2 eg = top2_sum(loads.egress, row);
      const Top2 in = top2(loads.ingress);
      double best_t = 0.0;
      std::uint32_t best_d = a;
      bool first = true;
      for (std::uint32_t d = 0; d < n; ++d) {
        const double t = placement_bottleneck(
            eg, in, loads.egress[d], loads.ingress[d], sk, row[d], d);
        if (first || t < best_t || (t == best_t && d == a)) {
          best_t = t;
          best_d = d;
          first = false;
        }
      }

      if (best_d != a && best_t < T) {
        loads.place(row, sk, best_d);
        dest[k] = best_d;
        ++result.moves;
        moved = true;
        result.final_T = loads.makespan();
        eg_at = ports_at(loads.egress, result.final_T);
        in_at = ports_at(loads.ingress, result.final_T);
      } else {
        loads.restore(a, undo);
      }
    }
    if (!moved) break;
  }
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
        // The greedy's final loads go straight into refine.
        LoadProfile loads = initial_loads(problem);
        Assignment dest(problem.partitions(), 0);
        if (s == 0) {
          greedy_place(problem, stats, descending_order(stats.max), loads,
                       dest);
        } else {
          util::Pcg32 rng(util::derive_seed(options.seed, s), s);
          std::vector<double> key = stats.max;
          for (double& v : key) v *= 1.0 + options.sort_noise * rng.uniform01();
          greedy_place(problem, stats, descending_order(key), loads, dest,
                       {.rng = &rng, .rcl = rcl});
        }
        runs[s].T =
            refine(problem, stats, dest, std::move(loads), options.refine)
                .final_T;
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
