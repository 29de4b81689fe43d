// Event-driven coflow simulator — the CoflowSim substitution (DESIGN.md §2).
//
// Flows progress at the rates chosen by a RateAllocator; rates are
// recomputed at every event (flow completion or coflow arrival). The engine
// reports per-coflow completion times (CCTs) and aggregate statistics.
//
// Two engine modes share one event loop (DESIGN.md §3):
//  * kIncremental (default) — hot per-flow fields live in SoA columns, the
//    AllocatorContext persists across events (cached link sets, schedulable
//    set, sort keys), next-event times come from allocator hints, and the
//    arrival / zero-flow-coflow sweeps are cursor-based. Per-event cost is
//    O(active flows) for the advance plus O(schedulable coflows) for
//    everything else — no O(#links x #flows) scans, no per-event allocation.
//  * kReference — the allocator context is wiped before every allocate()
//    (forcing full recomputation), the next-event time is an O(#flows) scan,
//    and the rejected-flow sweep runs unconditionally. This reproduces the
//    original engine step-for-step and anchors the equivalence tests.
// Both modes produce bit-identical event sequences; see
// tests/net/engine_equivalence_test.cpp.
//
// For a single coflow under the Madd allocator the simulated CCT equals the
// analytic bound Γ exactly (property-tested), which is the configuration the
// paper's experiments use.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/allocator.hpp"
#include "net/coflow.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"

namespace ccf::util {
class MonotonicArena;
}

namespace ccf::net {

/// Event-engine selection (see the header comment).
enum class SimEngine { kIncremental, kReference };

/// Engine limits and numerical knobs.
struct SimConfig {
  /// A flow is complete when its remaining volume drops below this many bytes.
  double completion_epsilon = 1e-6;
  /// Hard ceiling on simulated seconds (guards against starvation bugs).
  double max_time = 1e12;
  /// Hard ceiling on scheduling epochs. 0 (the default) scales the limit to
  /// the workload: 1,000,000 + 64 x (flows + coflows + fault events), far
  /// above what any terminating run produces (each epoch consumes a
  /// completion, arrival or fault) yet still finite, so runaway allocators
  /// fail fast at 100 racks and at 10,000 alike. Set a concrete value to
  /// pin the limit exactly.
  std::size_t max_events = 0;
  /// Record a TraceEvent per epoch (costs memory on big runs).
  bool record_trace = false;
  /// Optional bump allocator for the engine's per-run scratch (SoA flow
  /// columns, per-flow link tables, parallel-advance accumulators). When
  /// set, run() carves everything from it and frees nothing: a caller that
  /// runs simulations back to back (e.g. core::Engine's drain loop) resets
  /// the arena between runs and recycles the blocks, eliminating
  /// steady-state malloc traffic. When null, run() uses a private arena
  /// with the same lifetime as the call. The arena must outlive run().
  util::MonotonicArena* arena = nullptr;
  /// Which event engine to run (kReference exists for equivalence testing).
  SimEngine engine = SimEngine::kIncremental;
  /// Advance the flows of an epoch via util::parallel_for when at least this
  /// many are active; below it (or at 1 hardware thread) the advance is the
  /// plain sequential loop. Chunk merges happen in deterministic chunk order,
  /// so results do not depend on thread interleaving.
  std::size_t parallel_advance_threshold = 4096;
};

/// One scheduling epoch in the trace.
struct TraceEvent {
  double time = 0.0;
  std::size_t active_flows = 0;
  std::size_t completed_flows = 0;  ///< cumulative
};

/// Outcome of one coflow.
struct CoflowResult {
  std::string name;
  double arrival = 0.0;
  double completion = 0.0;
  double bytes = 0.0;
  std::size_t flows = 0;
  double deadline = 0.0;  ///< absolute; 0 = none
  double weight = 1.0;    ///< weighted-CCT importance (CoflowSpec::weight)
  bool rejected = false;  ///< denied admission by a deadline-aware allocator

  /// Coflow completion time — the paper's CCT metric.
  double cct() const noexcept { return completion - arrival; }
  /// Completed (not rejected) and, if a deadline was set, within it.
  bool met_deadline() const noexcept {
    return !rejected && (deadline == 0.0 || completion <= deadline + 1e-9);
  }
};

/// Outcome of a whole simulation run.
struct SimReport {
  std::vector<CoflowResult> coflows;
  double makespan = 0.0;     ///< completion time of the last coflow
  double total_bytes = 0.0;  ///< bytes actually moved over the fabric
  std::size_t events = 0;    ///< scheduling epochs executed
  std::size_t fault_events = 0;   ///< fault-schedule events applied
  std::size_t replacements = 0;   ///< flows re-placed after a port failure
  /// coflow name -> index into `coflows`, filled by Simulator::run() (first
  /// occurrence wins on duplicate names). Manually assembled reports may
  /// leave it empty; cct_of falls back to a linear scan then.
  std::unordered_map<std::string, std::size_t> name_index;

  double average_cct() const noexcept;
  /// CCT of the coflow with the given name; throws if absent. O(1) via
  /// name_index on reports produced by run().
  double cct_of(const std::string& name) const;
};

/// The simulator. Usage:
///   Simulator sim(Fabric(n), make_allocator("madd"));
///   sim.add_coflow(CoflowSpec("shuffle", 0.0, std::move(flows)));
///   SimReport r = sim.run();
class Simulator {
 public:
  Simulator(Fabric fabric, std::unique_ptr<RateAllocator> allocator,
            SimConfig config = {});

  /// Generic topology constructor (e.g. a RoutedTopology).
  Simulator(std::shared_ptr<const Network> network,
            std::unique_ptr<RateAllocator> allocator, SimConfig config = {});

  /// Enqueue a coflow; its flow matrix must match the fabric size.
  /// Must be called before run().
  void add_coflow(CoflowSpec spec);

  /// Sparse overload for large fabrics: an explicit flow list instead of an
  /// n x n matrix (see SparseCoflowSpec). Flow::start is the activation
  /// offset relative to the coflow's arrival; entries at or below
  /// completion_epsilon bytes are dropped, like the matrix path's. Both
  /// overloads may be mixed freely before run().
  void add_coflow(SparseCoflowSpec spec);

  /// Install a fault schedule (validated against the network) consumed by
  /// run() as first-class events: at each fault time the affected link
  /// capacities are rescaled and the allocator's capacity-derived caches
  /// invalidated. With options.replace_on_failure, a destination-port
  /// degradation at or below options.replace_threshold re-places the
  /// unfinished remainder of the flows headed there onto surviving nodes
  /// (the CCF greedy over current port loads). An empty schedule is exactly
  /// equivalent to never calling set_faults. Must be called before run().
  void set_faults(FaultSchedule schedule, FaultOptions options = {});

  /// Run to completion of all coflows. Can only be called once per epoch
  /// (see reset_epoch for the steady-state reuse path).
  SimReport run();

  /// Swap the network between epochs — the routed-topology path: the Engine
  /// recomputes the route choice per drain from the epoch's aggregate demand
  /// and installs the resulting RoutedTopology here before registering
  /// coflows. Must be called with no run in flight (construction or right
  /// after reset_epoch); the replacement must have the same node count, and
  /// an installed fault schedule is revalidated against it. Safe because the
  /// allocator context rebinds (and re-resolves every cached link table) at
  /// the start of each run.
  void set_network(std::shared_ptr<const Network> network);

  /// Epoch-reset fast path for always-on callers (core::Engine's drain
  /// loop): clear the enqueued coflows and the ran-once latch while keeping
  /// the network, the allocator instance, the fault schedule and the config
  /// (including a caller-owned arena) — so a long-lived session runs one
  /// Simulator object per shard instead of constructing fabric + allocator
  /// per epoch. Allocator-private caches are keyed on the context
  /// generation(), which bind() refreshes every run, so a reset-and-rerun
  /// epoch is bit-identical to one on a freshly constructed Simulator.
  void reset_epoch() noexcept;

  const std::vector<TraceEvent>& trace() const noexcept { return trace_; }
  const Network& network() const noexcept { return *network_; }
  const RateAllocator& allocator() const noexcept { return *allocator_; }

 private:
  /// Both add_coflow overloads normalize into this form at add time: flows
  /// carry their absolute start time, owning coflow id and remaining volume,
  /// so run() only concatenates and sorts. Dense specs are flattened
  /// immediately, which also releases their n x n matrices before run().
  struct NormalizedCoflow {
    std::string name;
    double arrival = 0.0;
    double deadline = 0.0;  ///< absolute; 0 = none
    double weight = 1.0;
    double bytes_total = 0.0;
    std::vector<Flow> flows;
  };

  void push_normalized(std::string name, double arrival, double deadline_rel,
                       double weight, std::vector<Flow> flows);

  std::shared_ptr<const Network> network_;
  std::unique_ptr<RateAllocator> allocator_;
  SimConfig config_;
  std::vector<NormalizedCoflow> coflows_;
  std::size_t total_flows_ = 0;
  std::vector<TraceEvent> trace_;
  FaultSchedule faults_;
  FaultOptions fault_options_;
  bool ran_ = false;
};

}  // namespace ccf::net
