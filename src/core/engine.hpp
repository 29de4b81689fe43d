// core::Engine — the multi-query execution engine (session architecture).
//
// The one-shot pipeline (run_pipeline) builds a fresh fabric, scheduler and
// simulator per join. The Engine inverts that: it owns ONE fabric for a whole
// session and accepts queries submitted over (simulated) time, so N
// concurrent joins become N coflows contending in a single online simulation
// instead of N isolated runs — the shape the coflow-stream literature (Shi et
// al.; Qiu/Stein/Zhong) evaluates schedulers on.
//
// Lifecycle:
//
//   Engine engine({.nodes = 100, .allocator = "varys"});
//   engine.submit(QuerySpec("q0", workload0));            // arrival 0
//   engine.submit(QuerySpec("q1", workload1, "ccf", 5.0)); // arrives at 5 s
//   EngineReport epoch = engine.drain();   // place (parallel) + simulate
//
// submit() resolves the query's placement policy through the registry once,
// at submission, and validates the workload against the session fabric.
// submit() is safe to call from many threads at once — the pending queue is
// mutex-guarded, and ids are handed out under the same lock — which is what
// lets core::Service push client submissions at an Engine shard while its
// driver thread drains it. drain() itself is single-consumer: one drain at a
// time (the Service guarantees this by construction: one driver per shard).
//
// drain() runs the stage graph (skew pre-pass -> placement -> flow
// generation) for every pending plan-cache miss concurrently on
// util::parallel — the contexts are independent, results land in submission
// order, and every
// registered scheduler is deterministic, so a drain is reproducible
// bit-for-bit regardless of thread count — then registers all coflows in one
// simulator and runs the epoch to completion. A session may interleave
// submit() and drain() freely; each drain opens a new simulation epoch at
// t = 0 (arrivals are relative to the epoch).
//
// Cross-epoch reuse (the always-on steady state):
//  * The simulator is ONE persistent object per session — reset_epoch()
//    between drains keeps the fabric, the allocator instance and the
//    monotonic arena, so steady-state epochs run out of the blocks the first
//    epoch allocated, with no malloc/free or allocator construction on the
//    drain path.
//  * The plan cache memoizes the stage-graph products (flow matrix +
//    model metrics) per (workload identity, placement policy, skew flag).
//    Re-submitting the same prepared workload — the prepared-statement
//    pattern of an always-on service — skips the whole placement fan-out.
//    Schedulers are deterministic, so a cache hit is bit-identical to a
//    recomputation; only the reported placement wall-clock differs (0).
//
// Determinism guarantee (pinned by tests/core/engine_test.cpp and
// tests/core/engine_reuse_test.cpp): an Engine fed queries serially — each
// submitted after the previous drain completes — reproduces run_pipeline's
// RunReports exactly, and a long-lived session's epoch N is bit-identical to
// the same batch drained by a freshly constructed Engine.
// run_pipeline itself is a one-query Engine session.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "data/workload.hpp"
#include "net/coflow.hpp"
#include "net/demand.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/flow.hpp"
#include "net/multipath.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "util/arena.hpp"

namespace ccf::core {

using QueryId = std::size_t;

/// Session-level configuration: one fabric + one inter-coflow policy.
struct EngineOptions {
  std::size_t nodes = 0;  ///< fabric width (required, > 0)
  double port_rate = net::Fabric::kDefaultPortRate;
  /// Inter-coflow scheduler (registry name: "fair" | "madd" | "varys" | ...).
  std::string allocator = "madd";
  /// Topology spec for the session network, net::TopologySpec::parse grammar
  /// (e.g. "leafspine:racks=32,hosts=16,spines=4,oversub=4"). Empty = the
  /// paper's flat non-blocking fabric. When set, `nodes` may be 0 (derived
  /// from the topology) or must match its host count; host ports run at
  /// port_rate. Every drain re-routes the epoch's aggregate demand through
  /// the routing policy and simulates on the resulting RoutedTopology.
  std::string topology;
  /// Route-selection policy on the topology (registry name: "ecmp" |
  /// "greedy" | "joint"); unused on the flat fabric.
  std::string routing = "ecmp";
  /// If false, drains skip the event simulation; per-query CCT reports the
  /// analytic Γ (exact for MADD on an idle fabric).
  bool simulate = true;
  /// Fault schedule injected into every drained epoch (empty = none).
  net::FaultSchedule faults;
  net::FaultOptions fault_options;
  /// Most threads, the draining one included, that take part in one drain's
  /// placement fan-out over its plan-cache misses (0 = hardware
  /// concurrency). A cap on participants from the process-wide
  /// util::parallel_for pool: it spawns nothing.
  std::size_t placement_threads = 0;
  /// Plan-cache entries kept per session (0 disables the cache). Eviction is
  /// wholesale — when the table is full the next insert clears it — which is
  /// exact for the steady-state working sets the cache exists for (a bounded
  /// set of prepared workloads cycling through an always-on service).
  std::size_t plan_cache_capacity = 64;
  /// Event-engine knobs for the shared simulation.
  net::SimConfig sim;
};

/// One query submission: a workload plus its per-query policy choices.
struct QuerySpec {
  std::string name = "query";
  double arrival = 0.0;  ///< seconds after the epoch opens
  std::shared_ptr<const data::Workload> workload;
  std::string scheduler = "ccf";  ///< placement policy (registry name)
  bool skew_handling = true;
  /// Weighted-CCT importance of the query's coflow (finite, >= 0). The
  /// ordering allocators ("sincronia" | "lp-order") prioritize the drain
  /// epoch by it; classic allocators ignore it. Flows through the Service
  /// verbatim, so per-tenant weighting composes with WRR admission.
  double weight = 1.0;
  /// A raw sparse coflow submission (no workload, no placement): the spec is
  /// registered verbatim in the epoch simulation — per-flow start offsets,
  /// duplicate (src,dst) records, deadline and weight included — and its
  /// aggregated demand feeds metrics and the epoch routing. When set, the
  /// workload/scheduler fields above are ignored and name/arrival/weight are
  /// taken from the spec. This is the n²-free ingestion path: a 10k-rack
  /// submission carries only its flow list end to end.
  std::shared_ptr<const net::SparseCoflowSpec> sparse;

  QuerySpec() = default;
  QuerySpec(std::string query_name, data::Workload w,
            std::string scheduler_name = "ccf", double arrival_time = 0.0)
      : name(std::move(query_name)),
        arrival(arrival_time),
        workload(std::make_shared<const data::Workload>(std::move(w))),
        scheduler(std::move(scheduler_name)) {}
  QuerySpec(std::string query_name, std::shared_ptr<const data::Workload> w,
            std::string scheduler_name = "ccf", double arrival_time = 0.0)
      : name(std::move(query_name)),
        arrival(arrival_time),
        workload(std::move(w)),
        scheduler(std::move(scheduler_name)) {}
};

/// Outcome of one drained epoch. queries[] is in submission order and each
/// entry's RunReport.sim is left empty — the shared simulation of the whole
/// epoch is `sim` (a single-query epoch's queries[0] plus `sim` is exactly a
/// run_pipeline RunReport).
struct EngineReport {
  std::vector<RunReport> queries;
  net::SimReport sim;
  double makespan = 0.0;             ///< epoch completion (0 when !simulate)
  double total_traffic_bytes = 0.0;
  double schedule_seconds = 0.0;     ///< summed placement time of the epoch
};

/// Cumulative session counters across drains.
struct EngineStats {
  std::size_t epochs = 0;
  std::size_t queries = 0;
  double total_traffic_bytes = 0.0;
  double schedule_seconds = 0.0;
  std::size_t sim_events = 0;
  std::size_t plan_hits = 0;    ///< submissions served from the plan cache
  std::size_t plan_misses = 0;  ///< submissions that ran the stage graph
};

class Engine {
 public:
  /// Validates the options (nodes > 0, known allocator; throws
  /// std::invalid_argument otherwise) and builds the session fabric.
  explicit Engine(EngineOptions options);

  /// Enqueue a query for the next drain. Resolves its placement policy
  /// through the registry and checks the workload spans the session fabric;
  /// throws std::invalid_argument on unknown policy / size mismatch /
  /// missing workload / negative arrival. Thread-safe: concurrent submitters
  /// serialize on the session mutex and each rejected call leaves nothing
  /// half-submitted.
  QueryId submit(QuerySpec spec);

  /// Enqueue a pre-built coflow (flows already generated — e.g. run_query's
  /// fixed-point iterations re-submitting placed stages). Skips the prepare /
  /// place stages; the flow matrix must span the session fabric. Thread-safe
  /// like the QuerySpec overload.
  QueryId submit(std::string name, double arrival, net::FlowMatrix flows);

  /// Enqueue a raw sparse coflow — the scale ingestion path (no dense matrix
  /// anywhere; see QuerySpec::sparse). Validates the spec against the
  /// session fabric per validate_sparse_spec. Thread-safe like the QuerySpec
  /// overload.
  QueryId submit(net::SparseCoflowSpec spec);

  std::size_t pending() const;

  /// Place every pending query (concurrently), register their coflows in one
  /// shared simulation, run the epoch, and return its report. Draining with
  /// nothing pending returns an empty report. May be called repeatedly, and
  /// concurrently with submit() — queries submitted while a drain is in
  /// flight land in the next epoch. NOT safe to call from two threads at
  /// once (single-consumer; one driver per shard in core::Service).
  EngineReport drain();

  /// drain() into a caller-owned report, reusing its vector capacity — the
  /// steady-state entry point for always-on callers (core::Service drains
  /// into one report per shard, so epochs allocate nothing for the report
  /// containers after warm-up).
  void drain_into(EngineReport& report);

  EngineStats stats() const;
  const net::Fabric& fabric() const noexcept { return fabric_; }
  const EngineOptions& options() const noexcept { return options_; }
  /// The session topology (null on the flat fabric).
  const std::shared_ptr<const net::Topology>& topology() const noexcept {
    return topology_;
  }

  /// Bytes of backing storage the session's simulator arena currently owns.
  /// Steady-state epochs must not grow this (pinned by engine_reuse_test).
  std::size_t sim_arena_capacity() const noexcept {
    return sim_arena_.capacity();
  }
  /// Plan-cache entries currently resident (bounded by plan_cache_capacity).
  std::size_t plan_cache_size() const;

 private:
  /// Plan-cache key: workload identity (the shared_ptr object, not value
  /// equality) x placement policy x skew flag. The entry anchors the
  /// workload shared_ptr so a dead pointer can never be revived by an
  /// address-reusing allocation.
  struct PlanKey {
    const data::Workload* workload = nullptr;
    std::string scheduler;
    bool skew_handling = true;
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const noexcept {
      std::size_t h = std::hash<const void*>()(k.workload);
      h ^= std::hash<std::string>()(k.scheduler) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      return h ^ (k.skew_handling ? 0x517cc1b727220a95ull : 0);
    }
  };
  struct PlanEntry {
    std::shared_ptr<const data::Workload> workload;  ///< key anchor
    /// The plan in the simulator's normalized form: exactly what
    /// FlowMatrix::to_flows would produce from the regenerated matrix at the
    /// session's completion epsilon. Hits bypass the dense matrix entirely —
    /// no n x n copy at submission, no per-coflow flattening at drain; the
    /// coflow enters the simulator through the sparse ingestion path, which
    /// normalizes a flow list bit-identically to the matrix path.
    std::shared_ptr<const std::vector<net::Flow>> flow_list;
    double traffic_bytes = 0.0;
    double makespan_bytes = 0.0;
    double gamma_seconds = 0.0;
    std::size_t flow_count = 0;
    bool skew_handled = false;
  };

  EngineOptions options_;
  net::Fabric fabric_;
  /// Session topology + routing policy (both null/unused on the flat
  /// fabric). fabric_ stays the analytic-metric surface either way: per-query
  /// Γ (stage_metrics) is the flat single-switch bound, while the simulation
  /// runs on the routed topology.
  std::shared_ptr<const net::Topology> topology_;
  std::unique_ptr<net::RoutingPolicy> routing_;
  /// Aggregate sparse demand of the epoch being drained (clear()ed and
  /// re-accumulated per drain, so the columns' capacity is recycled).
  std::optional<net::Demand> epoch_demand_;
  /// Guards pending_, next_id_, stats_, and the plan cache. Submissions are
  /// short critical sections; drain holds it only to swap the batch out and
  /// to fold the epoch into stats_/cache — the placement fan-out and the
  /// simulation run outside the lock.
  mutable std::mutex mutex_;
  std::vector<RunContext> pending_;
  /// The epoch being drained (single-consumer; see drain()). A member so the
  /// swap in drain_into recycles both vectors' capacity across epochs.
  std::vector<RunContext> drain_batch_;
  /// Batch indices of the epoch's plan-cache misses: the only contexts the
  /// stage fan-out visits (recycled across drains like drain_batch_).
  std::vector<std::size_t> drain_misses_;
  std::unordered_map<PlanKey, PlanEntry, PlanKeyHash> plan_cache_;
  /// Simulator scratch recycled across drains: reset at each drain boundary,
  /// so steady-state epochs run their SoA columns and link tables out of the
  /// blocks the first drain allocated (see util::MonotonicArena). Unused when
  /// options_.sim.arena is caller-supplied.
  util::MonotonicArena sim_arena_;
  /// The session's persistent simulator (net::Simulator::reset_epoch):
  /// fabric, allocator instance and arena survive across drains. Built on
  /// the first simulated drain.
  std::unique_ptr<net::Simulator> sim_;
  EngineStats stats_;
  QueryId next_id_ = 0;
};

/// Validate a sparse coflow spec against a fabric of `nodes` ports by the
/// Simulator's ingestion rules: finite arrival/deadline/weight >= 0, every
/// flow with endpoints in range, src != dst, finite volume >= 0 and a finite
/// start offset >= 0. Throws std::invalid_argument on the first violation.
/// Engine::submit applies this up front even for prenormalized specs, so a
/// mislabeled spec cannot reach the simulator's trusted path.
void validate_sparse_spec(const net::SparseCoflowSpec& spec,
                          std::size_t nodes);

/// Non-throwing form of validate_sparse_spec — the Service's admission
/// pre-check (drivers must never throw mid-drain).
bool sparse_spec_valid(const net::SparseCoflowSpec& spec,
                       std::size_t nodes) noexcept;

}  // namespace ccf::core
