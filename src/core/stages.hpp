// The pipeline of Fig. 3 decomposed into composable stages. One query's trip
// through the framework is: skew pre-pass (partial duplication) -> placement
// (application-level scheduler) -> flow generation -> coflow registration on
// the network. Each stage operates on a per-query RunContext that carries the
// intermediate products plus structured wall-clock timings and counters, so
// every orchestrator (run_pipeline, run_job, run_query, the Engine) composes
// the same code instead of re-wiring the stages by hand.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/skew_handling.hpp"
#include "data/workload.hpp"
#include "join/schedulers.hpp"
#include "net/coflow.hpp"
#include "net/demand.hpp"
#include "net/fabric.hpp"
#include "net/flow.hpp"
#include "opt/model.hpp"

namespace ccf::core {

/// Per-stage wall-clock of one query (RunReport::schedule_seconds is
/// place_seconds; the rest is new observability).
struct StageTimings {
  double prepare_seconds = 0.0;  ///< skew pre-pass
  double place_seconds = 0.0;    ///< placement scheduler
  double flows_seconds = 0.0;    ///< flow-matrix generation

  double total_seconds() const noexcept {
    return prepare_seconds + place_seconds + flows_seconds;
  }
};

/// Everything one query carries through the stage graph. Contexts are
/// independent of each other, so distinct queries may run their stages on
/// different threads (the Engine's placement fan-out relies on this).
struct RunContext {
  // --- submission inputs -------------------------------------------------
  std::string name = "query";
  double arrival = 0.0;  ///< seconds after its epoch opens
  std::shared_ptr<const data::Workload> workload;  ///< null once flows are injected
  std::string scheduler_name = "ccf";
  bool skew_handling = true;
  double weight = 1.0;  ///< weighted-CCT importance of the query's coflow
  /// Resolved at submission (policy registry); owned per query so contexts
  /// stay independent under the parallel placement fan-out.
  std::unique_ptr<join::PartitionScheduler> scheduler;

  // --- stage products ----------------------------------------------------
  std::optional<PreparedInput> prepared;    ///< after stage_prepare
  opt::Assignment destinations;             ///< after stage_place
  /// The query's aggregate demand in sparse columnar form, after stage_flows
  /// (or injected — prebuilt matrices and sparse submissions both land
  /// here). The dense matrix is a stage-local intermediate only.
  std::optional<net::Demand> flows;
  /// Raw sparse submission (Engine/Service SparseCoflowSpec path): the spec
  /// is registered verbatim at drain — per-flow start offsets, duplicate
  /// (src,dst) records and the prenormalized flag all survive — while
  /// `flows` above carries its aggregated demand for metrics/routing.
  std::shared_ptr<const net::SparseCoflowSpec> sparse;

  // --- structured timings and counters -----------------------------------
  StageTimings timings;
  double traffic_bytes = 0.0;
  double makespan_bytes = 0.0;  ///< bottleneck-port bytes (model T)
  double gamma_seconds = 0.0;   ///< analytic single-coflow bound
  std::size_t flow_count = 0;
  bool skew_handled = false;
  /// Stage products were copied from the Engine's plan cache at submission:
  /// the stage graph (including metrics) is skipped at drain. The products
  /// are bit-identical to a recomputation — every registered scheduler is
  /// deterministic — so only the reported placement wall-clock (0) differs.
  bool plan_cached = false;
  /// The memoized normalized flow list (what to_flows would produce from the
  /// regenerated matrix), shared with the plan-cache entry: cache hits skip
  /// the dense-matrix copy AND its per-coflow flattening — the drain feeds
  /// the simulator through the sparse ingestion path instead. Set at
  /// submission for a hit, and at the drain that memoizes a miss; null
  /// otherwise.
  std::shared_ptr<const std::vector<net::Flow>> plan_flows;
};

/// Skew pre-pass: workload -> PreparedInput (partial duplication when
/// ctx.skew_handling). Requires ctx.workload.
void stage_prepare(RunContext& ctx);

/// Placement with an explicit scheduler instance (shared-instance callers
/// like run_query). Requires stage_prepare to have run.
void stage_place(RunContext& ctx, join::PartitionScheduler& scheduler);

/// Placement with the context's own scheduler (the Engine path).
void stage_place(RunContext& ctx);

/// Flow generation: residual + placement + skew broadcasts -> dense
/// assignment matrix -> columnar ctx.flows, plus the traffic / flow-count
/// counters.
void stage_flows(RunContext& ctx);

/// Model-level metrics of the generated flows against a concrete fabric:
/// bottleneck-port bytes T and the analytic bound Γ. Requires ctx.flows.
void stage_metrics(RunContext& ctx, const net::Fabric& fabric);

/// Coflow registration: consume ctx.flows as the query's coflow (named and
/// timed after the context), normalized at `completion_epsilon` — the flow
/// list is exactly what the dense matrix's to_flows would produce, so the
/// spec enters the simulator through the trusted (prenormalized) sparse
/// ingestion path bit-identically to the historical CoflowSpec route. The
/// context's flows are cleared.
net::SparseCoflowSpec stage_coflow(RunContext& ctx, double completion_epsilon);

}  // namespace ccf::core
