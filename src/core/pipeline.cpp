#include "core/pipeline.hpp"

#include <memory>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/registry.hpp"

namespace ccf::core {

PipelineOptions PipelineOptions::paper_system(const std::string& scheduler_name) {
  PipelineOptions o;
  o.scheduler = scheduler_name;
  // §IV-A: the skew-handling method is integrated into Mini and CCF; Hash is
  // the plain hash-based baseline.
  o.skew_handling = scheduler_name != "hash";
  o.allocator = "madd";
  return o;
}

RunReport run_pipeline(const data::Workload& workload,
                       const PipelineOptions& options) {
  // A one-query Engine session: the Engine's single-query epoch runs the
  // identical stage graph on an identical single-coflow simulation, so this
  // wrapper is bit-equivalent to the historical hand-wired pipeline (pinned
  // by tests/core/engine_test.cpp).
  EngineOptions eopts;
  eopts.nodes = workload.matrix.nodes();
  eopts.port_rate = options.port_rate;
  eopts.allocator = options.allocator;
  eopts.simulate = options.simulate;
  eopts.faults = options.faults;
  eopts.fault_options = options.fault_options;
  eopts.topology = options.topology;
  eopts.routing = options.routing;
  eopts.placement_threads = 1;  // one query: nothing to fan out
  // The session drains once and dies, so a memoized plan (a copy of the
  // whole flow list) could never be hit.
  eopts.plan_cache_capacity = 0;
  Engine engine(std::move(eopts));

  QuerySpec query;
  query.name = options.scheduler;  // the coflow carries the system name
  // Non-owning view: the engine lives and drains inside this call.
  query.workload = std::shared_ptr<const data::Workload>(
      std::shared_ptr<const data::Workload>{}, &workload);
  query.scheduler = options.scheduler;
  query.skew_handling = options.skew_handling;
  engine.submit(std::move(query));

  EngineReport epoch = engine.drain();
  RunReport report = std::move(epoch.queries.front());
  report.sim = std::move(epoch.sim);
  return report;
}

}  // namespace ccf::core
