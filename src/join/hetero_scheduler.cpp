#include "join/hetero_scheduler.hpp"

#include <stdexcept>

#include "opt/greedy.hpp"

namespace ccf::join {

Assignment HeteroCcfScheduler::schedule(const AssignmentProblem& problem) {
  problem.validate();
  if (problem.nodes() != fabric_->nodes()) {
    throw std::invalid_argument(
        "HeteroCcfScheduler: matrix nodes != fabric nodes");
  }
  // Loads stay in bytes; the kernel compares them in seconds.
  return opt::greedy(problem, opt::PartitionStats(problem.matrix),
                     {.egress_capacity = fabric_->egress_capacities(),
                      .ingress_capacity = fabric_->ingress_capacities()});
}

}  // namespace ccf::join
