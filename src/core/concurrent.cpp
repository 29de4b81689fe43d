#include "core/concurrent.hpp"

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/stages.hpp"
#include "join/flows.hpp"
#include "net/metrics.hpp"

namespace ccf::core {

ConcurrentReport run_concurrent_operators(
    const std::vector<OperatorSpec>& operators, const JobOptions& options) {
  if (operators.empty()) {
    throw std::invalid_argument("run_concurrent_operators: no operators");
  }
  const std::size_t n = operators.front().workload.nodes;
  for (const OperatorSpec& op : operators) {
    if (op.workload.nodes != n) {
      throw std::invalid_argument(
          "run_concurrent_operators: operators span different clusters");
    }
  }

  // Stage graph per operator: skew pre-pass once (shared by both plans),
  // then Plan A's isolated placement, with one shared scheduler instance.
  const auto scheduler = registry::make_scheduler(options.scheduler);
  std::vector<RunContext> contexts(operators.size());
  std::size_t total_partitions = 0;
  for (std::size_t o = 0; o < operators.size(); ++o) {
    contexts[o].workload = std::make_shared<const data::Workload>(
        data::generate_workload(operators[o].workload));
    contexts[o].skew_handling = options.skew_handling;
    stage_prepare(contexts[o]);
    stage_place(contexts[o], *scheduler);
    total_partitions += contexts[o].prepared->residual.partitions();
  }

  // Plan B: one stacked instance — the union of all partitions, with the
  // summed initial loads — placed jointly.
  data::ChunkMatrix stacked(total_partitions, n);
  opt::AssignmentProblem joint_problem;
  joint_problem.initial_egress.assign(n, 0.0);
  joint_problem.initial_ingress.assign(n, 0.0);
  {
    std::size_t row = 0;
    for (const RunContext& ctx : contexts) {
      const PreparedInput& in = *ctx.prepared;
      for (std::size_t k = 0; k < in.residual.partitions(); ++k, ++row) {
        const std::span<const double> chunks = in.residual.partition_row(k);
        for (std::size_t i = 0; i < n; ++i) stacked.set(row, i, chunks[i]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        joint_problem.initial_egress[i] += in.initial_egress[i];
        joint_problem.initial_ingress[i] += in.initial_ingress[i];
      }
    }
  }
  joint_problem.matrix = &stacked;
  const opt::Assignment joint_dest = scheduler->schedule(joint_problem);

  // Simulate both configurations as Engine epochs with every coflow present
  // from t = 0, and accumulate the union flow matrix for the model-level Γ.
  ConcurrentReport report;
  const net::Fabric fabric(n, options.port_rate);
  EngineOptions eopts;
  eopts.nodes = n;
  eopts.port_rate = options.port_rate;
  eopts.allocator = options.allocator;
  Engine engine(std::move(eopts));

  auto run_config = [&](bool joint, double* union_gamma) {
    net::Demand union_demand(n);
    std::size_t row = 0;
    for (std::size_t o = 0; o < operators.size(); ++o) {
      const PreparedInput& in = *contexts[o].prepared;
      net::FlowMatrix flows(n);
      if (joint) {
        const std::size_t p = in.residual.partitions();
        const std::span<const std::uint32_t> slice(joint_dest.data() + row, p);
        flows = join::assignment_flows(in.residual, slice, in.initial_flows);
        row += p;
      } else {
        flows = join::assignment_flows(in.residual, contexts[o].destinations,
                                       in.initial_flows);
      }
      union_demand.accumulate(flows);
      engine.submit(operators[o].name, 0.0, std::move(flows));
    }
    *union_gamma = net::gamma_bound(union_demand, fabric);
    return std::move(engine.drain().sim);
  };

  report.independent = run_config(false, &report.union_gamma_independent);
  report.joint = run_config(true, &report.union_gamma_joint);
  return report;
}

}  // namespace ccf::core
