#include "core/job.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/registry.hpp"

namespace ccf::core {

JobReport run_job(const std::vector<OperatorSpec>& operators,
                  const JobOptions& options) {
  if (operators.empty()) {
    throw std::invalid_argument("run_job: no operators");
  }
  const std::size_t n = operators.front().workload.nodes;
  for (const OperatorSpec& op : operators) {
    if (op.workload.nodes != n) {
      throw std::invalid_argument("run_job: operators span different clusters");
    }
  }

  // One Engine session: every operator is a query; their coflows contend in
  // the shared epoch simulation under the job's inter-coflow scheduler.
  EngineOptions eopts;
  eopts.nodes = n;
  eopts.port_rate = options.port_rate;
  eopts.allocator = options.allocator;
  // Drained once, then destroyed: a memoized plan could never be hit.
  eopts.plan_cache_capacity = 0;
  Engine engine(std::move(eopts));
  for (const OperatorSpec& op : operators) {
    QuerySpec query(op.name, data::generate_workload(op.workload),
                    options.scheduler, op.arrival);
    query.skew_handling = options.skew_handling;
    engine.submit(std::move(query));
  }
  EngineReport epoch = engine.drain();

  JobReport report;
  report.sim = std::move(epoch.sim);
  report.total_traffic_bytes = epoch.total_traffic_bytes;
  report.schedule_seconds = epoch.schedule_seconds;
  return report;
}

}  // namespace ccf::core
