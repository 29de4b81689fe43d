#include "net/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/next_event.hpp"
#include "util/arena.hpp"
#include "util/calendar.hpp"
#include "util/parallel.hpp"

namespace ccf::net {

namespace {

/// Chunk size for the parallel flow-advance (also the per-chunk scratch-slot
/// stride; see util::parallel_for's chunk-boundary guarantee).
constexpr std::size_t kAdvanceGrain = 2048;

/// Per-chunk accumulator for the parallel advance. `delta` is an arena-backed
/// per-coflow array that keeps an all-zero invariant between events (the
/// merge clears exactly the touched entries).
struct ChunkScratch {
  double* delta = nullptr;             ///< per-coflow bytes moved this epoch
  std::vector<std::uint32_t> touched;  ///< coflows with delta != 0
  double total = 0.0;                  ///< bytes moved by this chunk
  bool completed = false;              ///< some flow in the chunk finished
};

}  // namespace

double SimReport::average_cct() const noexcept {
  if (coflows.empty()) return 0.0;
  double s = 0.0;
  for (const CoflowResult& c : coflows) s += c.cct();
  return s / static_cast<double>(coflows.size());
}

double SimReport::cct_of(const std::string& name) const {
  if (!name_index.empty()) {
    const auto it = name_index.find(name);
    if (it != name_index.end()) return coflows[it->second].cct();
    throw std::out_of_range("SimReport: no coflow named " + name);
  }
  // Manually assembled report: fall back to a linear scan.
  for (const CoflowResult& c : coflows) {
    if (c.name == name) return c.cct();
  }
  throw std::out_of_range("SimReport: no coflow named " + name);
}

Simulator::Simulator(Fabric fabric, std::unique_ptr<RateAllocator> allocator,
                     SimConfig config)
    : Simulator(std::make_shared<const Fabric>(std::move(fabric)),
                std::move(allocator), config) {}

Simulator::Simulator(std::shared_ptr<const Network> network,
                     std::unique_ptr<RateAllocator> allocator, SimConfig config)
    : network_(std::move(network)),
      allocator_(std::move(allocator)),
      config_(config) {
  if (!network_) throw std::invalid_argument("Simulator: null network");
  if (!allocator_) throw std::invalid_argument("Simulator: null allocator");
}

void Simulator::push_normalized(std::string name, double arrival,
                                double deadline_rel, double weight,
                                std::vector<Flow> flows) {
  NormalizedCoflow nc;
  nc.name = std::move(name);
  nc.arrival = arrival;
  nc.deadline = deadline_rel > 0.0 ? arrival + deadline_rel : 0.0;
  nc.weight = weight;
  const auto id = static_cast<std::uint32_t>(coflows_.size());
  for (Flow& f : flows) {
    f.coflow = id;
    nc.bytes_total += f.volume;
  }
  total_flows_ += flows.size();
  nc.flows = std::move(flows);
  coflows_.push_back(std::move(nc));
}

void Simulator::add_coflow(CoflowSpec spec) {
  if (ran_) throw std::logic_error("Simulator: add_coflow after run()");
  if (spec.flows.nodes() != network_->nodes()) {
    throw std::invalid_argument("Simulator: coflow size != fabric size");
  }
  if (spec.arrival < 0.0 || !std::isfinite(spec.arrival)) {
    throw std::invalid_argument("Simulator: invalid arrival time");
  }
  if (spec.deadline < 0.0 || !std::isfinite(spec.deadline)) {
    throw std::invalid_argument("Simulator: invalid deadline");
  }
  if (spec.weight < 0.0 || !std::isfinite(spec.weight)) {
    throw std::invalid_argument("Simulator: invalid coflow weight");
  }
  if (spec.start_offsets) {
    if (spec.start_offsets->nodes() != spec.flows.nodes()) {
      throw std::invalid_argument("Simulator: start_offsets shape mismatch");
    }
    for (std::size_t i = 0; i < spec.flows.nodes(); ++i) {
      for (std::size_t j = 0; j < spec.flows.nodes(); ++j) {
        const double off = spec.start_offsets->volume(i, j);
        if (spec.flows.volume(i, j) > 0.0 &&
            (off < 0.0 || !std::isfinite(off))) {
          throw std::invalid_argument("Simulator: invalid flow start offset");
        }
      }
    }
  }
  std::vector<Flow> fs = spec.flows.to_flows(config_.completion_epsilon);
  for (Flow& f : fs) {
    f.start = spec.arrival;
    if (spec.start_offsets) {
      f.start += spec.start_offsets->volume(f.src, f.dst);
    }
  }
  push_normalized(std::move(spec.name), spec.arrival, spec.deadline,
                  spec.weight, std::move(fs));
}

void Simulator::add_coflow(SparseCoflowSpec spec) {
  if (ran_) throw std::logic_error("Simulator: add_coflow after run()");
  if (spec.arrival < 0.0 || !std::isfinite(spec.arrival)) {
    throw std::invalid_argument("Simulator: invalid arrival time");
  }
  if (spec.deadline < 0.0 || !std::isfinite(spec.deadline)) {
    throw std::invalid_argument("Simulator: invalid deadline");
  }
  if (spec.weight < 0.0 || !std::isfinite(spec.weight)) {
    throw std::invalid_argument("Simulator: invalid coflow weight");
  }
  if (spec.prenormalized) {
    // Trusted fast path (see SparseCoflowSpec): the list is to_flows output,
    // so the per-flow checks below can never fire. The in-place fixup is
    // exactly what the validating loop computes for such a list, so both
    // paths hand push_normalized identical flows.
    for (Flow& f : spec.flows) {
      f.remaining = f.volume;
      f.start += spec.arrival;
    }
    push_normalized(std::move(spec.name), spec.arrival, spec.deadline,
                    spec.weight, std::move(spec.flows));
    return;
  }
  const std::size_t nn = network_->nodes();
  std::vector<Flow> fs;
  fs.reserve(spec.flows.size());
  for (const Flow& f : spec.flows) {
    if (f.src >= nn || f.dst >= nn) {
      throw std::invalid_argument("Simulator: flow endpoint outside fabric");
    }
    if (f.src == f.dst) {
      throw std::invalid_argument(
          "Simulator: flow src == dst (local moves carry no traffic)");
    }
    if (f.volume < 0.0 || !std::isfinite(f.volume)) {
      throw std::invalid_argument("Simulator: invalid flow volume");
    }
    if (f.start < 0.0 || !std::isfinite(f.start)) {
      throw std::invalid_argument("Simulator: invalid flow start offset");
    }
    if (f.volume <= config_.completion_epsilon) continue;
    Flow g;
    g.src = f.src;
    g.dst = f.dst;
    g.volume = f.volume;
    g.remaining = f.volume;
    g.start = spec.arrival + f.start;
    fs.push_back(g);
  }
  push_normalized(std::move(spec.name), spec.arrival, spec.deadline,
                  spec.weight, std::move(fs));
}

void Simulator::set_network(std::shared_ptr<const Network> network) {
  if (!network) throw std::invalid_argument("Simulator: null network");
  if (ran_) throw std::logic_error("Simulator: set_network after run()");
  if (network->nodes() != network_->nodes()) {
    throw std::invalid_argument("Simulator::set_network: node count mismatch");
  }
  if (!faults_.empty()) faults_.validate(*network);
  network_ = std::move(network);
}

void Simulator::reset_epoch() noexcept {
  coflows_.clear();
  total_flows_ = 0;
  trace_.clear();
  ran_ = false;
}

void Simulator::set_faults(FaultSchedule schedule, FaultOptions options) {
  if (ran_) throw std::logic_error("Simulator: set_faults after run()");
  if (!(options.replace_threshold >= 0.0 && options.replace_threshold <= 1.0)) {
    throw std::invalid_argument("Simulator: replace_threshold not in [0, 1]");
  }
  schedule.validate(*network_);
  faults_ = std::move(schedule);
  fault_options_ = options;
}

SimReport Simulator::run() {
  if (ran_) throw std::logic_error("Simulator: run() called twice");
  ran_ = true;

  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Per-coflow state from the normalized specs, then one flat flow array.
  // The normalized per-coflow lists are released as they are consumed — at
  // service scale they would otherwise double the flow footprint.
  const std::size_t coflow_count = coflows_.size();
  std::vector<CoflowState> states(coflow_count);
  for (std::size_t c = 0; c < coflow_count; ++c) {
    CoflowState& st = states[c];
    st.id = static_cast<std::uint32_t>(c);
    st.arrival = coflows_[c].arrival;
    st.deadline = coflows_[c].deadline;
    st.weight = coflows_[c].weight;
    st.bytes_total = coflows_[c].bytes_total;
    st.flows_total = st.flows_active = coflows_[c].flows.size();
  }
  std::vector<Flow> flows;
  flows.reserve(total_flows_);
  for (NormalizedCoflow& nc : coflows_) {
    flows.insert(flows.end(), nc.flows.begin(), nc.flows.end());
    std::vector<Flow>().swap(nc.flows);
  }

  // Sort flows by activation time so active ones form a prefix; completed
  // flows are swapped past `active_end`.
  std::sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.coflow < b.coflow;
  });

  SimReport report;
  report.coflows.resize(coflow_count);
  report.name_index.reserve(coflow_count);
  for (std::size_t c = 0; c < coflow_count; ++c) {
    report.coflows[c].name = coflows_[c].name;
    report.coflows[c].arrival = states[c].arrival;
    report.coflows[c].bytes = states[c].bytes_total;
    report.coflows[c].flows = states[c].flows_total;
    report.coflows[c].deadline = states[c].deadline;
    report.coflows[c].weight = states[c].weight;
    report.name_index.emplace(coflows_[c].name, c);
  }

  // Hot per-flow state in SoA columns (remaining/rate drive every event; the
  // cached link spans make L_ij lookups pointer dereferences). The columns
  // are swapped together, so a flow's fields always share one index. All of
  // it — columns, link slab, parallel-advance accumulators — is carved from
  // one monotonic arena: the caller's (core::Engine resets and recycles it
  // across drains) or a run-local one.
  const std::size_t n = flows.size();
  util::MonotonicArena local_arena;
  util::MonotonicArena& arena = config_.arena ? *config_.arena : local_arena;

  std::uint32_t* src = arena.allocate<std::uint32_t>(n);
  std::uint32_t* dst = arena.allocate<std::uint32_t>(n);
  std::uint32_t* cof = arena.allocate<std::uint32_t>(n);
  std::uint32_t* link_len = arena.allocate<std::uint32_t>(n);
  double* start = arena.allocate<double>(n);
  double* remaining = arena.allocate<double>(n);
  double* rate = arena.allocate<double>(n);
  const Network::LinkId** link_ptr = arena.allocate<const Network::LinkId*>(n);
  std::fill_n(rate, n, 0.0);

  AllocatorContext ctx;
  ctx.bind(*network_, coflow_count);

  // Per-flow link lists live in one contiguous arena slab instead of warming
  // the context's (src,dst) map: a fabric flow needs exactly two LinkIds, and
  // at millions of flows the map's node storage dwarfed them. The context's
  // map stays available for the fault-replacement path, which re-points
  // individual flows lazily.
  {
    std::vector<std::size_t> offs(n);
    std::vector<Network::LinkId> flat;
    flat.reserve(2 * n);
    std::vector<Network::LinkId> route;
    for (std::size_t i = 0; i < n; ++i) {
      src[i] = flows[i].src;
      dst[i] = flows[i].dst;
      cof[i] = flows[i].coflow;
      start[i] = flows[i].start;
      remaining[i] = flows[i].remaining;
      route.clear();
      network_->append_links(src[i], dst[i], route);
      offs[i] = flat.size();
      flat.insert(flat.end(), route.begin(), route.end());
      link_len[i] = static_cast<std::uint32_t>(route.size());
    }
    Network::LinkId* slab = arena.allocate<Network::LinkId>(flat.size());
    std::copy(flat.begin(), flat.end(), slab);
    for (std::size_t i = 0; i < n; ++i) link_ptr[i] = slab + offs[i];
  }
  flows.clear();
  flows.shrink_to_fit();

  ActiveFlows view;
  view.src = src;
  view.dst = dst;
  view.coflow = cof;
  view.remaining = remaining;
  view.rate = rate;
  view.link_ptr = link_ptr;
  view.link_len = link_len;

  // Fault machinery (faults.hpp). Every fault structure and code path below
  // is gated on have_faults, so a run without a schedule executes exactly
  // the pre-fault engine — the empty-schedule bit-identity the property
  // tests assert. Schedule events are resolved to concrete link lists once,
  // up front, then dispatched through a calendar queue keyed by event time
  // (delivery order (time, push order) — identical to the former sorted
  // cursor's (time, schedule order)).
  const bool have_faults = !faults_.empty();
  struct ResolvedFault {
    double time = 0.0;
    double factor = 1.0;
    std::uint32_t node = 0;
    bool replace = false;  ///< ingress failure that triggers re-placement
    std::vector<Network::LinkId> links;
  };
  std::vector<ResolvedFault> resolved_faults;
  util::CalendarQueue fault_cal;
  std::vector<double> base_cap, current_cap, link_scale;
  std::unique_ptr<FaultedNetworkView> faulted_view;
  // Network the reference engine's per-event AoS rebuild reads capacities
  // from; with faults installed it must see the current (degraded) values.
  const Network* sched_net = network_.get();
  if (have_faults) {
    const std::size_t link_count = network_->link_count();
    base_cap.resize(link_count);
    for (std::size_t l = 0; l < link_count; ++l) {
      base_cap[l] = network_->link_capacity(static_cast<Network::LinkId>(l));
    }
    current_cap = base_cap;
    link_scale.assign(link_count, 1.0);
    faulted_view = std::make_unique<FaultedNetworkView>(*network_, current_cap);
    sched_net = faulted_view.get();
    resolved_faults.reserve(faults_.size());
    for (const FaultEvent& e : faults_.events()) {
      ResolvedFault r;
      r.time = e.time;
      r.factor = (e.kind == FaultKind::kRestoreLink ||
                  e.kind == FaultKind::kRestorePort)
                     ? 1.0
                     : e.factor;
      r.node = e.node;
      switch (e.kind) {
        case FaultKind::kDegradeLink:
        case FaultKind::kRestoreLink:
          r.links.push_back(e.link);
          break;
        case FaultKind::kDegradePort:
        case FaultKind::kRestorePort:
          if (e.side != PortSide::kIngress) {
            network_->append_egress_links(e.node, r.links);
          }
          if (e.side != PortSide::kEgress) {
            network_->append_ingress_links(e.node, r.links);
          }
          break;
      }
      r.replace = fault_options_.replace_on_failure &&
                  e.kind == FaultKind::kDegradePort &&
                  e.side != PortSide::kEgress &&
                  e.factor <= fault_options_.replace_threshold;
      resolved_faults.push_back(std::move(r));
    }
    double lo = kInf, hi = -kInf;
    for (const ResolvedFault& r : resolved_faults) {
      lo = std::min(lo, r.time);
      hi = std::max(hi, r.time);
    }
    fault_cal.prepare(lo, hi, resolved_faults.size());
    for (std::size_t i = 0; i < resolved_faults.size(); ++i) {
      fault_cal.push(resolved_faults[i].time,
                     static_cast<util::CalendarQueue::Payload>(i));
    }
  }

  const bool incremental = config_.engine == SimEngine::kIncremental;
  if (config_.record_trace) trace_.reserve(n + coflow_count + 16);

  // Epoch ceiling: explicit values are honored exactly; the 0 default scales
  // with the workload (see SimConfig::max_events).
  const std::size_t max_events =
      config_.max_events != 0
          ? config_.max_events
          : 1'000'000 + 64 * (n + coflow_count + resolved_faults.size());

  // Coflow arrival dispatch: a calendar queue keyed by arrival time replaces
  // the per-event O(#coflows) sweep and the sorted-vector cursor that
  // followed it. Coflows are pushed in id order, so equal-time deliveries
  // reproduce the former (arrival, id) order exactly.
  util::CalendarQueue coflow_cal;
  if (coflow_count > 0) {
    double lo = kInf, hi = -kInf;
    for (const CoflowState& st : states) {
      lo = std::min(lo, st.arrival);
      hi = std::max(hi, st.arrival);
    }
    coflow_cal.prepare(lo, hi, coflow_count);
    for (std::size_t c = 0; c < coflow_count; ++c) {
      coflow_cal.push(states[c].arrival,
                      static_cast<util::CalendarQueue::Payload>(c));
    }
  }
  std::size_t coflows_drained = 0;

  double now = 0.0;
  std::size_t next_unarrived = 0;  // flows[next_unarrived..) not yet arrived
  std::size_t active_end = 0;      // flows[0..active_end) are active
  std::size_t completed_total = 0;
  // Set when a flow of an already-rejected coflow activates: its drop sweep
  // must run at the next event even though no new rejection happened.
  bool drop_pending = false;

  std::vector<ChunkScratch> chunk_scratch;
  std::vector<Flow> aos;  // reference mode: rebuilt per event (seed shape)

  // Fallback next-event reduction: chunked parallel min over
  // remaining[i]/rate[i] (next_event.hpp), bit-identical to the scalar scan.
  // Allocators rewrite every active rate each epoch, so the engine marks the
  // full active range dirty after allocate(); the scanner's win here is the
  // parallel rescan and deterministic chunk merge (the clean-chunk fast path
  // serves callers with sparse updates, e.g. the property suite).
  NextEventScan next_scan;
  next_scan.bind(remaining, rate);

  // Stable compaction: completed flows leave by shifting the survivors down,
  // so every coflow keeps its members in a stable relative order across
  // events. Allocators rely on this to reuse per-coflow structures (a
  // rebuilt structure then matches the cached one exactly); it also keeps
  // the freeze/subtraction order of the shared kernels deterministic.
  auto move_flow = [&](std::size_t from, std::size_t to) {
    if (from == to) return;
    src[to] = src[from];
    dst[to] = dst[from];
    cof[to] = cof[from];
    start[to] = start[from];
    remaining[to] = remaining[from];
    rate[to] = rate[from];
    link_ptr[to] = link_ptr[from];
    link_len[to] = link_len[from];
  };

  auto activate_arrivals = [&] {
    while (next_unarrived < n && start[next_unarrived] <= now) {
      const std::uint32_t c = cof[next_unarrived];
      states[c].started = true;
      ctx.touch(c);  // membership changed: keys and grouping are stale
      if (states[c].rejected) drop_pending = true;
      // Anything in [active_end, next_unarrived) is a dead (completed) flow
      // left behind by compaction; overwriting it is safe.
      move_flow(next_unarrived, active_end);
      ++active_end;
      ++next_unarrived;
    }
    // Calendar-based replacement of the zero-flow-coflow sweep. At the first
    // event with now >= arrival no flow of the coflow can have completed yet,
    // so flows_active == 0 here means the coflow never had network flows.
    coflow_cal.pop_due(now, [&](double, util::CalendarQueue::Payload cid) {
      CoflowState& st = states[cid];
      if (!st.started) {
        st.started = true;
        ctx.touch(st.id);
      }
      if (!st.completed && st.flows_active == 0) {
        st.completed = true;
        st.completion = std::max(now, st.arrival);
        report.coflows[st.id].completion = st.completion;
        ctx.touch(st.id);
      }
      ++coflows_drained;
    });
  };

  // Completion bookkeeping plus the stable compaction that keeps surviving
  // flows in order (advance loops zero `remaining` on completion). `from` is
  // a caller-known lower bound on the first completed index: everything
  // before it stays in place, so the shift starts there.
  auto compact_completed = [&](std::size_t from) {
    std::size_t w = from;
    for (std::size_t idx = from; idx < active_end; ++idx) {
      if (remaining[idx] > 0.0) {
        move_flow(idx, w++);
        continue;
      }
      CoflowState& st = states[cof[idx]];
      --st.flows_active;
      ++completed_total;
      ctx.touch(cof[idx]);
      if (st.flows_active == 0) {
        st.completed = true;
        st.completion = now;
        report.coflows[st.id].completion = now;
      }
    }
    active_end = w;
  };

  // Failure-aware re-placement (DESIGN.md §6): when an ingress port fails
  // mid-shuffle, move the unfinished remainder of the flows headed there
  // onto surviving nodes with the CCF greedy — largest remainder first,
  // each flow to the destination minimizing the resulting port-time
  // bottleneck over the *remaining* bytes. Sources are fixed (the data sits
  // on its sender), so only ingress times change; the top-2 trick makes the
  // exclude-self maximum O(1) per candidate destination.
  auto replace_flows_to = [&](std::uint32_t dead) {
    constexpr std::uint32_t kNoNode = std::numeric_limits<std::uint32_t>::max();
    const std::size_t nn = network_->nodes();
    const double threshold = fault_options_.replace_threshold;
    // Current per-node port capacities and ingress scales (min over the
    // port's links; single-link ports on every bundled topology).
    std::vector<double> ecap(nn, 0.0), icap(nn, 0.0), iscale(nn, 1.0);
    {
      std::vector<Network::LinkId> port;
      for (std::uint32_t j = 0; j < nn; ++j) {
        port.clear();
        network_->append_egress_links(j, port);
        double c = kInf;
        for (const auto l : port) c = std::min(c, current_cap[l]);
        ecap[j] = c == kInf ? 0.0 : c;
        port.clear();
        network_->append_ingress_links(j, port);
        c = kInf;
        double s = 1.0;
        for (const auto l : port) {
          c = std::min(c, current_cap[l]);
          s = std::min(s, link_scale[l]);
        }
        icap[j] = c == kInf ? 0.0 : c;
        iscale[j] = s;
      }
    }
    // Remaining-byte port loads over live flows (active + not yet arrived)
    // and the candidates: unfinished flows headed to the dead port.
    std::vector<double> eload(nn, 0.0), iload(nn, 0.0);
    std::vector<std::size_t> cands;
    auto scan = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        if (states[cof[i]].rejected || remaining[i] <= 0.0) continue;
        eload[src[i]] += remaining[i];
        iload[dst[i]] += remaining[i];
        if (dst[i] == dead && remaining[i] > config_.completion_epsilon) {
          cands.push_back(i);
        }
      }
    };
    scan(0, active_end);
    scan(next_unarrived, n);
    if (cands.empty()) return;
    std::stable_sort(cands.begin(), cands.end(),
                     [&](std::size_t a, std::size_t b) {
                       return remaining[a] > remaining[b];
                     });
    // Egress times never change (sources are fixed); failed egress ports are
    // excluded — their stranded load is not actionable by this hook.
    double egress_time = 0.0;
    for (std::uint32_t j = 0; j < nn; ++j) {
      if (ecap[j] > 0.0) egress_time = std::max(egress_time, eload[j] / ecap[j]);
    }
    for (const std::size_t i : cands) {
      const double v = remaining[i];
      iload[dead] -= v;
      // Top-2 ingress times over surviving nodes.
      double t1 = -1.0, t2 = -1.0;
      std::uint32_t a1 = kNoNode;
      for (std::uint32_t j = 0; j < nn; ++j) {
        if (iscale[j] <= threshold || icap[j] <= 0.0) continue;
        const double t = iload[j] / icap[j];
        if (t > t1) {
          t2 = t1;
          t1 = t;
          a1 = j;
        } else if (t > t2) {
          t2 = t;
        }
      }
      std::uint32_t best = kNoNode;
      double best_time = kInf;
      for (std::uint32_t j = 0; j < nn; ++j) {
        if (j == src[i] || iscale[j] <= threshold || icap[j] <= 0.0) continue;
        const double others = j == a1 ? (t2 < 0.0 ? 0.0 : t2) : t1;
        const double t =
            std::max({egress_time, others, (iload[j] + v) / icap[j]});
        if (t < best_time) {
          best_time = t;
          best = j;
        }
      }
      if (best == kNoNode) {  // no surviving destination: ride out the fault
        iload[dead] += v;
        continue;
      }
      dst[i] = best;
      const auto links = ctx.links(src[i], best);
      link_ptr[i] = links.data();
      link_len[i] = static_cast<std::uint32_t>(links.size());
      rate[i] = 0.0;
      iload[best] += v;
      ctx.touch(cof[i]);  // link sets changed: grouping structures are stale
      ++report.replacements;
    }
  };

  // Apply every fault event due at `now`: rescale the affected links, then
  // refresh the allocator's cached capacities and drop its capacity-derived
  // caches (SEBF Γ keys, allocator-private state keyed on generation())
  // through the same reset path the reference engine uses. The link table
  // survives — topology never changes.
  std::vector<std::uint32_t> replace_pending;
  auto apply_faults_due = [&] {
    if (!have_faults) return;
    bool changed = false;
    fault_cal.pop_due(now, [&](double, util::CalendarQueue::Payload fi) {
      const ResolvedFault& f = resolved_faults[fi];
      for (const auto l : f.links) {
        if (link_scale[l] != f.factor) {
          link_scale[l] = f.factor;
          current_cap[l] = base_cap[l] * f.factor;
          changed = true;
        }
      }
      if (f.replace) replace_pending.push_back(f.node);
      ++report.fault_events;
    });
    if (changed) {
      ctx.update_capacities(current_cap);
      ctx.reset_caches();
    }
    if (!replace_pending.empty()) {
      std::sort(replace_pending.begin(), replace_pending.end());
      replace_pending.erase(
          std::unique(replace_pending.begin(), replace_pending.end()),
          replace_pending.end());
      for (const std::uint32_t nd : replace_pending) replace_flows_to(nd);
      replace_pending.clear();
    }
  };

  // The clock moves only through here, so a run stops as soon as it passes
  // max_time, even at an event that completes every active flow.
  auto advance_clock = [&](double t) {
    now = t;
    if (now > config_.max_time) {
      throw std::runtime_error("Simulator: max_time exceeded");
    }
  };

  activate_arrivals();
  apply_faults_due();

  while (true) {
    if (active_end == 0) {
      // Nothing active: jump to the next arrival or fault, or finish (any
      // fault past the last arrival cannot affect anything observable).
      if (next_unarrived >= n) break;
      double t = start[next_unarrived];
      if (have_faults) t = std::min(t, fault_cal.next_time());
      advance_clock(t);
      activate_arrivals();
      apply_faults_due();
      continue;
    }
    if (report.events >= max_events) {
      throw std::runtime_error(
          "Simulator: max_events exceeded — " + std::to_string(report.events) +
          " scheduling epochs at t=" + std::to_string(now) + " hit the " +
          (config_.max_events != 0 ? "configured" : "auto-scaled") +
          " limit of " + std::to_string(max_events) +
          "; raise SimConfig.max_events if the workload is genuinely this "
          "large");
    }
    ++report.events;

    if (incremental) {
      view.count = active_end;
      ctx.begin_epoch();
      allocator_->allocate(ctx, view, states, now);
    } else {
      // Reference engine: per-event full recomputation through the legacy
      // AoS entry point — the pre-incremental engine's shape. Every call
      // rebuilds the allocator's link table, residuals, keys and coflow
      // order from scratch; nothing survives between events.
      aos.resize(active_end);
      for (std::size_t i = 0; i < active_end; ++i) {
        Flow& f = aos[i];
        f.src = src[i];
        f.dst = dst[i];
        f.coflow = cof[i];
        f.start = start[i];
        f.volume = remaining[i];
        f.remaining = remaining[i];
        f.rate = rate[i];
      }
      allocator_->allocate(std::span<Flow>(aos), states, *sched_net, now);
      for (std::size_t i = 0; i < active_end; ++i) rate[i] = aos[i].rate;
    }
    // Every active rate was just rewritten.
    next_scan.mark_dirty(0, active_end);

    // Drop the flows of coflows the allocator just rejected (admission
    // control): they are marked completed-as-rejected at rejection time. The
    // incremental engine skips the sweep unless a rejection is pending.
    if (!incremental || ctx.rejection_pending || drop_pending) {
      drop_pending = false;
      std::size_t w = 0;
      for (std::size_t idx = 0; idx < active_end; ++idx) {
        CoflowState& st = states[cof[idx]];
        if (!st.rejected) {
          move_flow(idx, w++);
          continue;
        }
        if (!st.completed) {
          st.completed = true;
          st.completion = now;
          report.coflows[st.id].completion = now;
          report.coflows[st.id].rejected = true;
          ctx.touch(st.id);
        }
        --st.flows_active;
      }
      active_end = w;
    }
    if (active_end == 0) continue;  // everything active was rejected

    // Next event: earliest flow completion or next coflow arrival. The
    // incremental engine takes the allocator's hint (computed per-flow, so
    // identical to this scan); otherwise the chunked reduction runs — exact
    // min, bit-identical to the former scalar loop.
    double dt = kInf;
    if (incremental && ctx.min_dt_valid()) {
      dt = ctx.min_dt();
    } else {
      dt = next_scan.min_dt(active_end, config_.parallel_advance_threshold);
    }
    if (next_unarrived < n) dt = std::min(dt, start[next_unarrived] - now);
    if (have_faults) {
      // Never step past a fault epoch: capacities change there. This also
      // keeps a total outage alive — every flow may sit at rate 0 waiting
      // for a scheduled restore, which is progress, not starvation.
      // (next_time() is +inf once the schedule is drained.)
      dt = std::min(dt, fault_cal.next_time() - now);
    }
    if (dt == kInf) {
      throw std::runtime_error(
          "Simulator: starvation — allocator \"" + allocator_->name() +
          "\" assigned zero rate to every active flow");
    }
    dt = std::max(dt, 0.0);
    // Forward-progress guard: a zero-length epoch is only legal when it
    // consumes at least one pending arrival or fault event (or completes a
    // flow); otherwise the loop would spin at this timestamp forever.
    const bool zero_dt = dt == 0.0;
    const std::size_t progress_before =
        next_unarrived + coflows_drained + completed_total +
        report.fault_events;

    // Advance the clock and all active flows.
    advance_clock(now + dt);
    if (active_end >= config_.parallel_advance_threshold &&
        active_end > kAdvanceGrain) {
      // Phase 1 (parallel): per-flow remaining -= rate*dt plus per-chunk
      // byte accounting. Chunk k owns scratch slot k (deterministic chunk
      // boundaries), so no cross-thread state is shared. The per-coflow
      // delta arrays come out of the arena, sequentially, before the fork.
      const std::size_t chunks =
          util::parallel_chunk_count(active_end, kAdvanceGrain);
      if (chunk_scratch.size() < chunks) {
        const std::size_t old = chunk_scratch.size();
        chunk_scratch.resize(chunks);
        for (std::size_t k = old; k < chunks; ++k) {
          chunk_scratch[k].delta = arena.allocate<double>(coflow_count);
          std::fill_n(chunk_scratch[k].delta, coflow_count, 0.0);
        }
      }
      util::parallel_for(
          active_end, kAdvanceGrain, [&](std::size_t b, std::size_t e) {
            ChunkScratch& cs = chunk_scratch[b / kAdvanceGrain];
            cs.total = 0.0;
            cs.completed = false;
            for (std::size_t idx = b; idx < e; ++idx) {
              const double moved = rate[idx] * dt;
              double rem = remaining[idx] - moved;
              double bytes = moved;
              if (rem <= config_.completion_epsilon) {
                // Any sub-epsilon residue still counts as delivered.
                bytes += std::max(rem, 0.0);
                rem = 0.0;
                cs.completed = true;
              }
              remaining[idx] = rem;
              if (bytes != 0.0) {
                const std::uint32_t c = cof[idx];
                if (cs.delta[c] == 0.0) cs.touched.push_back(c);
                cs.delta[c] += bytes;
                cs.total += bytes;
              }
            }
          });
      // Phase 2 (sequential, chunk order): merge byte totals, then run the
      // same completion/compaction sweep as the sequential path. Summing
      // per-chunk partials reorders the floating-point adds, so bytes_sent /
      // total_bytes can differ from the sequential path by rounding ulps.
      std::size_t first_done = active_end;
      for (std::size_t k = 0; k < chunks; ++k) {
        ChunkScratch& cs = chunk_scratch[k];
        report.total_bytes += cs.total;
        if (cs.completed && first_done == active_end) {
          first_done = k * kAdvanceGrain;
        }
        for (const std::uint32_t c : cs.touched) {
          states[c].bytes_sent += cs.delta[c];
          cs.delta[c] = 0.0;  // restore the all-zero invariant
        }
        cs.touched.clear();
      }
      if (first_done < active_end) compact_completed(first_done);
    } else {
      std::size_t first_done = active_end;
      for (std::size_t idx = 0; idx < active_end; ++idx) {
        const double moved = rate[idx] * dt;
        double rem = remaining[idx] - moved;
        double bytes = moved;
        if (rem <= config_.completion_epsilon) {
          // Any sub-epsilon residue still counts as delivered.
          bytes += std::max(rem, 0.0);
          rem = 0.0;
          if (first_done == active_end) first_done = idx;
        }
        remaining[idx] = rem;
        states[cof[idx]].bytes_sent += bytes;
        report.total_bytes += bytes;
      }
      if (first_done < active_end) compact_completed(first_done);
    }

    if (config_.record_trace) {
      trace_.push_back(TraceEvent{now, active_end, completed_total});
    }

    activate_arrivals();
    apply_faults_due();
    if (zero_dt && next_unarrived + coflows_drained + completed_total +
                           report.fault_events ==
                       progress_before) {
      throw std::runtime_error(
          "Simulator: no forward progress — allocator \"" +
          allocator_->name() + "\" produced a zero-length epoch at t=" +
          std::to_string(now) + " (event " + std::to_string(report.events) +
          ", " + std::to_string(active_end) + " active flows)");
    }
    if (active_end == 0 && next_unarrived >= n) break;
  }

  // Zero-flow coflows arriving after the last transfer finished never pass
  // through the loop; close them at their arrival time.
  for (CoflowState& st : states) {
    if (!st.completed && st.flows_active == 0) {
      st.completed = true;
      st.completion = std::max(now, st.arrival);
      report.coflows[st.id].completion = st.completion;
    }
    report.makespan = std::max(report.makespan, st.completion);
  }
  return report;
}

}  // namespace ccf::net
