#include "join/schedulers.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "opt/greedy.hpp"
#include "opt/local_search.hpp"
#include "util/name_table.hpp"
#include "util/rng.hpp"

namespace ccf::join {

Assignment HashScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  const std::size_t n = problem.nodes();
  Assignment dest(problem.partitions());
  for (std::size_t k = 0; k < dest.size(); ++k) {
    dest[k] = static_cast<std::uint32_t>(k % n);
  }
  return dest;
}

Assignment MiniScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  const opt::PartitionStats stats(problem.matrix);
  return Assignment(stats.arg_max.begin(), stats.arg_max.end());
}

Assignment CcfScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  return opt::greedy(problem, opt::PartitionStats(problem.matrix));
}

Assignment CcfLsScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  const opt::PartitionStats stats(problem.matrix);
  Assignment dest = opt::greedy(problem, stats);
  opt::refine(problem, stats, dest);
  return dest;
}

Assignment PortfolioScheduler::schedule(const AssignmentProblem& problem) {
  opt::GraspResult r = opt::grasp(problem, options_);
  last_T_ = r.T;
  last_best_start_ = r.best_start;
  return std::move(r.dest);
}

Assignment ExactScheduler::schedule(const AssignmentProblem& problem) {
  const opt::BnbResult r = opt::solve_exact(problem, options_);
  last_optimal_ = r.optimal;
  return r.dest;
}

Assignment RandomScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  util::Pcg32 rng(util::derive_seed(seed_, 3), 3);
  Assignment dest(problem.partitions());
  for (std::uint32_t& d : dest) {
    d = rng.bounded(static_cast<std::uint32_t>(problem.nodes()));
  }
  return dest;
}

Assignment replace_failed_destinations(const AssignmentProblem& problem,
                                       Assignment dest,
                                       std::span<const std::uint32_t> failed) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();
  if (dest.size() != p) {
    throw std::invalid_argument(
        "replace_failed_destinations: placement size mismatch");
  }
  std::vector<char> alive(n, 1);
  for (const std::uint32_t f : failed) {
    if (f >= n) {
      throw std::invalid_argument(
          "replace_failed_destinations: failed node out of range");
    }
    alive[f] = 0;
  }
  if (std::find(alive.begin(), alive.end(), char{1}) == alive.end()) {
    throw std::invalid_argument(
        "replace_failed_destinations: every node failed");
  }

  // Seed the greedy's load state from everything that survives: initial
  // loads plus the kept (healthy-destination) placements. A failed node
  // keeps sending — its chunks are still locally readable — so its egress
  // accrues normally; its ingress stays 0 (initial ingress there is
  // stranded, and nothing new may land on it).
  const opt::PartitionStats stats(m);
  opt::LoadProfile loads = opt::initial_loads(problem);
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) loads.ingress[i] = 0.0;
  }
  std::vector<std::uint32_t> affected;
  for (std::size_t k = 0; k < p; ++k) {
    if (dest[k] >= n) {
      throw std::invalid_argument(
          "replace_failed_destinations: placement refers to unknown node");
    }
    if (!alive[dest[k]]) {
      affected.push_back(static_cast<std::uint32_t>(k));
      continue;
    }
    const std::span<const double> row = m.partition_row(k);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != dest[k]) loads.egress[i] += row[i];
    }
    loads.ingress[dest[k]] += stats.total[k] - row[dest[k]];
  }

  // Re-place the stranded partitions with the Algorithm-1 kernel, restricted
  // to surviving destinations. Dead nodes still take part in the top-2
  // egress (they send) and sit at ingress 0, which is their true ingress
  // time — nothing may flow to them.
  opt::sort_descending(affected, stats.max);
  opt::greedy_place(problem, stats, affected, loads, dest, {.allowed = alive});
  return dest;
}

namespace {

template <class T>
constexpr auto make = &util::make_default<PartitionScheduler, T>;

constexpr auto kSchedulers = util::make_name_table<PartitionScheduler>({
    {"hash", make<HashScheduler>},
    {"mini", make<MiniScheduler>},
    {"ccf", make<CcfScheduler>},
    {"ccf-ls", make<CcfLsScheduler>},
    {"ccf-portfolio", make<PortfolioScheduler>},
    {"exact", make<ExactScheduler>},
    {"random", make<RandomScheduler>},
});

}  // namespace

std::span<const std::string_view> scheduler_names() {
  return kSchedulers.names;
}

std::unique_ptr<PartitionScheduler> make_scheduler(const std::string& name) {
  if (auto scheduler = kSchedulers.make(name)) return scheduler;
  throw std::invalid_argument("make_scheduler: unknown scheduler: " + name);
}

}  // namespace ccf::join
