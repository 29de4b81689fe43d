// serve_hot / serve_cold: open-loop load on core::Service from one generator
// thread (the benchmark's main thread).
//
// Every query is due at start + k / rate whether or not earlier ones have
// finished, and its latency runs from that due time to the on_epoch callback
// that delivers it, so a stall also charges the queries queued behind it.
// The latency splits exactly into generator lag (due -> submit call), door
// (the submit call) and in-service time (submit return -> on_epoch).
//
//  * serve_hot: 2 shards x 1 tenant on a 16-node flat fabric, max_batch 2.
//    The 32 prepared star-schema workloads of bench_service_load cycle
//    round-robin and are warmed into the 64-entry plan cache during set-up,
//    so every query is a cache hit: admission, rings, staging, batching and
//    wake-ups, with almost no placement.
//  * serve_cold: 1 shard on a 64-host oversubscribed leaf-spine with joint
//    routing, max_batch 4. 128 distinct workloads cycle through the
//    64-entry cache, which the wholesale eviction empties every cycle, so
//    every query misses: placement, flow generation and per-epoch routing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ccfbench.hpp"
#include "core/registry.hpp"
#include "core/service.hpp"
#include "core/stages.hpp"
#include "data/workload.hpp"
#include "net/demand.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace ccfbench {
namespace {

using WorkloadPtr = std::shared_ptr<const ccf::data::Workload>;

struct ServeSpec {
  const char* name = "";
  ccf::core::ServiceOptions options;
  std::vector<WorkloadPtr> (*make_workloads)(std::uint64_t seed) = nullptr;
  /// Queries submitted per tenant during set-up (the plan-cache warm-up).
  std::size_t warm_queries = 0;
  /// The workload's premise: every probe query hits the plan cache (hot)
  /// or misses it (cold). The traced run checks it.
  bool plan_hits = false;
  double fixed_qps = 0.0;  ///< offered rate of the latency probes
};

/// The timed phase is kRounds rounds of a capacity window followed by a
/// latency probe, each half of the round. Host interference only ever adds
/// latency and removes throughput, and on a shared virtual machine it comes
/// in stretches of seconds (a third of serve_cold's probes read ~40% slow),
/// so each metric is the second best of the rounds: the second-lowest p50
/// and p90 and the second-highest capacity — past the slow rounds, but not
/// one lucky round.
constexpr int kRounds = 5;

double second_best(std::vector<double> v, bool higher_is_better) {
  std::sort(v.begin(), v.end());
  return higher_is_better ? v[v.size() - 2] : v[1];
}

// --- epoch log --------------------------------------------------------------

struct Done {
  std::uint64_t ticket = 0;
  Clock::time_point at;
  std::uint64_t seq = 0;
  std::size_t shard = 0;
};

/// The on_epoch sink. Slot s is written only by shard s's driver thread and
/// read by the main thread after Service::flush(), which orders the two.
/// Completions are recorded only while a probe runs, so the log's memory
/// does not grow with the throughput of the capacity phase.
class EpochLog {
 public:
  EpochLog(std::size_t shards, bool keep_epochs)
      : done_(shards), kept_(keep_epochs ? shards : 0) {}

  void on_epoch(const ccf::core::ShardEpoch& epoch) {
    const Clock::time_point now = Clock::now();
    if (recording_.load(std::memory_order_relaxed)) {
      std::vector<Done>& done = done_[epoch.shard];
      for (const ccf::core::ServiceQuery& q : epoch.queries) {
        done.push_back({q.ticket, now, epoch.seq, epoch.shard});
      }
    }
    if (!kept_.empty()) kept_[epoch.shard].push_back(epoch);
  }

  /// Switched only while the service is idle (before a probe's first submit,
  /// after its flush).
  void record(bool on) { recording_.store(on, std::memory_order_relaxed); }

  void reserve(std::size_t queries_per_shard) {
    for (auto& d : done_) d.reserve(d.size() + queries_per_shard);
    for (auto& k : kept_) k.reserve(k.size() + queries_per_shard);
  }

  std::vector<Done> take() {
    std::vector<Done> all;
    for (auto& d : done_) {
      all.insert(all.end(), d.begin(), d.end());
      d.clear();
    }
    return all;
  }

  /// Every epoch of every shard since construction, in per-shard order
  /// (only when constructed with keep_epochs).
  const std::vector<std::vector<ccf::core::ShardEpoch>>& kept() const {
    return kept_;
  }

 private:
  std::atomic<bool> recording_{false};
  std::vector<std::vector<Done>> done_;
  std::vector<std::vector<ccf::core::ShardEpoch>> kept_;
};

// --- harness ----------------------------------------------------------------

struct Harness {
  std::vector<WorkloadPtr> workloads;
  std::unique_ptr<EpochLog> log;
  std::unique_ptr<ccf::core::Service> service;  // destroyed before the log
  std::uint64_t cursor = 0;  ///< index of the next query of the stream
  double generate_s = 0.0;
};

Harness make_harness(const ServeSpec& spec, std::uint64_t seed,
                     bool keep_epochs) {
  Harness h;
  const Clock::time_point t0 = Clock::now();
  h.workloads = spec.make_workloads(seed);
  h.generate_s = seconds_between(t0, Clock::now());
  h.log = std::make_unique<EpochLog>(spec.options.shards, keep_epochs);
  EpochLog* log = h.log.get();
  h.service = std::make_unique<ccf::core::Service>(
      spec.options,
      [log](const ccf::core::ShardEpoch& epoch) { log->on_epoch(epoch); });
  const std::size_t tenants = spec.options.tenants.size();
  for (std::size_t t = 0; t < tenants; ++t) {
    for (std::size_t i = 0; i < spec.warm_queries; ++i) {
      const auto r = h.service->submit(
          t, ccf::core::QuerySpec(
                 "warm", h.workloads[i % h.workloads.size()], "ccf"));
      if (!r.accepted()) throw std::runtime_error("warm-up query refused");
    }
  }
  h.service->flush();
  // The stream continues after the warm-up queries, so serve_cold's first
  // queries are misses like every later one.
  h.cursor = spec.warm_queries;
  return h;
}

// --- probes -----------------------------------------------------------------

void wait_until(Clock::time_point t) {
  // Spin (yielding) through the last stretch: a sleep overshoots by the timer
  // slack and, on a virtual machine, by up to a few hundred microseconds more
  // — longer than the 100 us send interval at 10k qps. Longer waits sleep
  // first, so that at low rates the generator does not hold a core that
  // the shard driver it just woke may be placed on.
  const auto spin = std::chrono::microseconds(400);
  if (t - Clock::now() > spin + std::chrono::microseconds(100)) {
    std::this_thread::sleep_until(t - spin);
  }
  while (Clock::now() < t) std::this_thread::yield();
}

struct Sent {
  Clock::time_point due, call, ret;
  std::uint64_t ticket = 0;
  bool accepted = false;
};

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Probe {
  std::vector<Sent> sent;
  std::vector<Done> done;        ///< completions, joined to sent by ticket
  std::vector<std::size_t> sent_of_done;
  std::vector<double> latency_ms;  ///< per sent query; +inf when refused
  std::size_t accepted = 0;
  std::size_t completed = 0;
  bool decomposition_exact = true;
  double p50_ms = 0.0, p90_ms = 0.0;

  std::size_t refused() const { return sent.size() - accepted; }
};

Probe run_probe(Harness& h, const ServeSpec& spec, double seconds) {
  const double rate = spec.fixed_qps;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::size_t tenants = spec.options.tenants.size();
  Probe p;
  p.sent.resize(n);
  h.log->reserve(n / spec.options.shards + 64);
  h.log->record(true);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t q = h.cursor + k;
    ccf::core::QuerySpec query("q", h.workloads[q % h.workloads.size()],
                               "ccf");
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    1e9 * static_cast<double>(k) / rate));
    wait_until(due);
    Sent& s = p.sent[k];
    s.due = due;
    s.call = Clock::now();
    const ccf::core::SubmitResult r =
        h.service->submit(q % tenants, std::move(query));
    s.ret = Clock::now();
    s.accepted = r.accepted();
    s.ticket = r.ticket;
  }
  h.cursor += n;
  h.service->flush();
  h.log->record(false);
  p.done = h.log->take();

  // One generator thread: accepted tickets increase with k.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_ticket;
  for (std::size_t k = 0; k < n; ++k) {
    if (p.sent[k].accepted) by_ticket.emplace_back(p.sent[k].ticket, k);
  }
  p.accepted = by_ticket.size();
  p.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  std::vector<std::uint8_t> seen(n, 0);
  for (const Done& d : p.done) {
    const auto it = std::lower_bound(
        by_ticket.begin(), by_ticket.end(),
        std::make_pair(d.ticket, std::size_t{0}));
    if (it == by_ticket.end() || it->first != d.ticket || seen[it->second]) {
      p.sent_of_done.push_back(n);  // unknown or duplicate completion
      continue;
    }
    const std::size_t k = it->second;
    const Sent& s = p.sent[k];
    seen[k] = 1;
    ++p.completed;
    p.sent_of_done.push_back(k);
    p.decomposition_exact = p.decomposition_exact &&
                            (s.call - s.due) + (s.ret - s.call) +
                                    (d.at - s.ret) ==
                                d.at - s.due;
    p.latency_ms[k] = ms(d.at - s.due);
  }
  p.p50_ms = percentile(p.latency_ms, 0.5);
  p.p90_ms = percentile(p.latency_ms, 0.9);
  return p;
}

/// Output checks of a probe; every query is an operation.
void check_probe(const Probe& p, Report& report) {
  report.check(p.completed == p.accepted &&
                   p.done.size() == p.completed,
               "completed != accepted");
  report.check(p.decomposition_exact,
               "lag + door + in-service does not sum to the latency");
  for (std::size_t k = 0; k < p.sent.size(); ++k) {
    report.op(p.sent[k].accepted, "query refused at the fixed rate");
  }
}

/// Closed-loop capacity: the generator keeps 4 x max_batch queries per
/// shard in flight (the Service's staging window); the result is the
/// completion rate.
double run_capacity(Harness& h, const ServeSpec& spec, double seconds,
                    Report& report) {
  const std::size_t window =
      4 * spec.options.max_batch * spec.options.shards;
  const std::size_t tenants = spec.options.tenants.size();
  const ccf::core::ServiceStats before = h.service->stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    const ccf::core::ServiceStats now = h.service->stats();
    if (now.accepted - now.completed >= window) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t q = h.cursor++;
    const ccf::core::SubmitResult r = h.service->submit(
        q % tenants,
        ccf::core::QuerySpec("q", h.workloads[q % h.workloads.size()], "ccf"));
    report.op(r.accepted(), "query refused in the capacity phase");
  }
  const ccf::core::ServiceStats after = h.service->stats();
  const double elapsed = seconds_between(start, Clock::now());
  h.service->flush();
  return static_cast<double>(after.completed - before.completed) / elapsed;
}

// --- replay (traced run) ----------------------------------------------------

bool same_reports(const ccf::core::EngineReport& a,
                  const ccf::core::EngineReport& b) {
  if (a.queries.size() != b.queries.size() || a.sim.events != b.sim.events ||
      a.makespan != b.makespan ||
      a.total_traffic_bytes != b.total_traffic_bytes) {
    return false;
  }
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    const ccf::core::RunReport& x = a.queries[i];
    const ccf::core::RunReport& y = b.queries[i];
    if (x.scheduler != y.scheduler || x.traffic_bytes != y.traffic_bytes ||
        x.cct_seconds != y.cct_seconds || x.gamma_seconds != y.gamma_seconds ||
        x.makespan_bytes != y.makespan_bytes || x.flow_count != y.flow_count ||
        x.skew_handled != y.skew_handled) {
      return false;
    }
  }
  return true;
}

struct EngineReplay {
  /// drain_ms[shard][seq] of every replayed epoch.
  std::vector<std::vector<double>> drain_ms;
  std::vector<double> probe_drain_ms, probe_place_ms, submit_us;
  std::size_t mismatches = 0;
};

/// Replay every recorded ShardEpoch, per shard in order, through a fresh
/// Engine built with the same options: the same sequence of submissions
/// reproduces the plan-cache state, and each epoch's RunReports must come
/// back bit for bit.
EngineReplay replay_engines(const EpochLog& log, const ServeSpec& spec,
                            const std::vector<std::size_t>& warm_epochs) {
  EngineReplay out;
  out.drain_ms.resize(log.kept().size());
  ccf::core::EngineReport report;
  for (std::size_t s = 0; s < log.kept().size(); ++s) {
    ccf::core::Engine engine(spec.options.engine);
    for (const ccf::core::ShardEpoch& epoch : log.kept()[s]) {
      const bool probe = epoch.seq >= warm_epochs[s];
      for (const ccf::core::ServiceQuery& q : epoch.queries) {
        const Clock::time_point t0 = Clock::now();
        {
          const Tracer::Scope span(tracer(), "core.engine.submit");
          engine.submit(q.spec);
        }
        if (probe) {
          out.submit_us.push_back(1e6 * seconds_between(t0, Clock::now()));
        }
      }
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer(), "core.engine.drain");
        engine.drain_into(report);
      }
      const double drain = ms(Clock::now() - t0);
      if (out.drain_ms[s].size() <= epoch.seq) {
        out.drain_ms[s].resize(epoch.seq + 1);
      }
      out.drain_ms[s][epoch.seq] = drain;
      if (!same_reports(report, epoch.report)) ++out.mismatches;
      if (probe) {
        out.probe_drain_ms.push_back(drain);
        out.probe_place_ms.push_back(1e3 * report.schedule_seconds);
      }
    }
  }
  return out;
}

/// Stage replay of each distinct workload (ccf placement, skew handling on,
/// as the Service runs it); returns each workload's aggregate demand.
std::vector<ccf::net::Demand> replay_stages(const Harness& h,
                                            const ServeSpec& spec,
                                            Report& report) {
  std::vector<ccf::net::Demand> demands;
  const ccf::net::Fabric fabric(h.workloads.front()->matrix.nodes(),
                                spec.options.engine.port_rate);
  std::vector<double> prepare, place, flows, metrics, coflow;
  double schedule_s = 0.0;
  for (const WorkloadPtr& w : h.workloads) {
    ccf::core::RunContext ctx;
    ctx.workload = w;
    TimedScheduler scheduler(ccf::core::registry::make_scheduler("ccf"));
    const auto timed = [](std::vector<double>& into, std::string_view name,
                          auto&& stage) {
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer(), name);
        stage();
      }
      into.push_back(ms(Clock::now() - t0));
    };
    timed(prepare, "core.stages.prepare",
          [&] { ccf::core::stage_prepare(ctx); });
    timed(place, "core.stages.place",
          [&] { ccf::core::stage_place(ctx, scheduler); });
    timed(flows, "core.stages.flows", [&] { ccf::core::stage_flows(ctx); });
    timed(metrics, "core.stages.metrics",
          [&] { ccf::core::stage_metrics(ctx, fabric); });
    demands.push_back(*ctx.flows);
    timed(coflow, "core.stages.coflow", [&] {
      ccf::core::stage_coflow(ctx, spec.options.engine.sim.completion_epsilon);
    });
    schedule_s += scheduler.total_s();
  }
  report.layer("core.stages.prepare_ms.p50", median(prepare), "ms");
  report.layer("core.stages.place_ms.p50", median(place), "ms");
  report.layer("core.stages.flows_ms.p50", median(flows), "ms");
  report.layer("core.stages.metrics_ms.p50", median(metrics), "ms");
  report.layer("core.stages.coflow_ms.p50", median(coflow), "ms");
  report.layer("join.schedule_s.ccf", schedule_s, "s");
  return demands;
}

/// The session routing policy over each probe epoch's aggregate demand.
void replay_routing(const Harness& h, const ServeSpec& spec,
                    const std::vector<ccf::net::Demand>& demands,
                    const std::vector<std::size_t>& warm_epochs,
                    Report& report) {
  const ccf::core::EngineOptions& engine = spec.options.engine;
  if (engine.topology.empty()) return;
  ccf::net::TopologySpec topo_spec =
      ccf::net::TopologySpec::parse(engine.topology);
  topo_spec.host_rate = engine.port_rate;
  const auto topology = ccf::net::make_topology(topo_spec);
  const auto policy = ccf::core::registry::make_routing(engine.routing);
  std::unordered_map<const ccf::data::Workload*, std::size_t> index;
  for (std::size_t i = 0; i < h.workloads.size(); ++i) {
    index.emplace(h.workloads[i].get(), i);
  }
  std::vector<double> choose_ms;
  for (std::size_t s = 0; s < h.log->kept().size(); ++s) {
    for (const ccf::core::ShardEpoch& epoch : h.log->kept()[s]) {
      if (epoch.seq < warm_epochs[s]) continue;
      ccf::net::Demand demand(topology->nodes());
      for (const ccf::core::ServiceQuery& q : epoch.queries) {
        demand.accumulate(demands[index.at(q.spec.workload.get())]);
      }
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span(tracer(), "net.routing.choose");
        policy->choose(*topology, demand);
      }
      choose_ms.push_back(ms(Clock::now() - t0));
    }
  }
  report.layer("net.routing.choose_ms.p50", median(choose_ms), "ms");
}

// --- runs -------------------------------------------------------------------

void run_untraced(const ServeSpec& spec, const RunOptions& options,
                  Report& report) {
  Harness h = timed_setup(report, [&] {
    return make_harness(spec, options.seed, false);
  });

  const double half_round_s = options.seconds / kRounds / 2;
  std::vector<double> p50, p90, capacity;
  for (int i = 0; i < kRounds; ++i) {
    capacity.push_back(run_capacity(h, spec, half_round_s, report));
    const Probe p = run_probe(h, spec, half_round_s);
    check_probe(p, report);
    p50.push_back(p.p50_ms);
    p90.push_back(p.p90_ms);
    std::cout << "# " << spec.name << "  round " << i << ": capacity "
              << capacity.back() << " queries/s; at " << spec.fixed_qps
              << " qps p50 " << p.p50_ms << " ms, p90 " << p.p90_ms
              << " ms over " << p.sent.size() << " queries\n";
  }
  report.metric("p50_ms", second_best(p50, false), "ms");
  report.metric("p90_ms", second_best(p90, false), "ms");
  report.metric("ops_per_s", second_best(capacity, true), "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const ccf::core::ServiceStats stats = h.service->stats();
  report.check(stats.completed == stats.accepted, "completed != accepted");
}

void run_traced(const ServeSpec& spec, const RunOptions& options,
                Report& report) {
  const double half = options.seconds / 2;
  double base_p50 = 0.0;
  {
    // Untraced half: the overhead baseline and the process counters.
    Harness h = make_harness(spec, options.seed, false);
    Phase plain;
    std::vector<double> p50;
    std::size_t offered = 0;
    for (int i = 0; i < 2; ++i) {
      const Probe p = run_probe(h, spec, half / 2);
      check_probe(p, report);
      p50.push_back(p.p50_ms);
      offered += p.sent.size();
    }
    plain.finish();
    report_proc(report, plain, static_cast<double>(offered));
    base_p50 = median(p50);
  }

  // Traced half: a fresh service that keeps every epoch from construction
  // on, so the replay engines see exactly what the shards saw.
  Harness h = make_harness(spec, options.seed, true);
  const std::size_t shards = spec.options.shards;
  std::vector<std::size_t> warm_epochs(shards);
  std::vector<ccf::core::EngineStats> before(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    warm_epochs[s] = h.log->kept()[s].size();
    before[s] = h.service->shard_engine(s).stats();
  }
  const ccf::core::ServiceStats stats0 = h.service->stats();
  tracer().enable(true);
  const Probe p = run_probe(h, spec, half);
  check_probe(p, report);
  const ccf::core::ServiceStats stats1 = h.service->stats();

  std::size_t hits = 0, lookups = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const ccf::core::EngineStats after = h.service->shard_engine(s).stats();
    hits += after.plan_hits - before[s].plan_hits;
    lookups += after.plan_hits + after.plan_misses - before[s].plan_hits -
               before[s].plan_misses;
  }

  const EngineReplay engines = replay_engines(*h.log, spec, warm_epochs);
  const std::vector<ccf::net::Demand> demands = replay_stages(h, spec, report);
  replay_routing(h, spec, demands, warm_epochs, report);
  report.check(engines.mismatches == 0,
               "a replayed epoch differs from the Service's");

  // Per-query decomposition, and the epoch's drain time it contains.
  std::vector<double> door_us, inservice_ms, wait_ms, lag_ms;
  double layer_ms = 0.0, latency_ms = 0.0;
  for (std::size_t i = 0; i < p.done.size(); ++i) {
    const std::size_t k = p.sent_of_done[i];
    if (k >= p.sent.size()) continue;
    const Sent& s = p.sent[k];
    const Done& d = p.done[i];
    const double in = ms(d.at - s.ret);
    inservice_ms.push_back(in);
    wait_ms.push_back(in - engines.drain_ms[d.shard][d.seq]);
    layer_ms += ms(d.at - s.call);
    latency_ms += ms(d.at - s.due);
    if (k % 16 == 0) {  // a sample of queries in the Chrome trace
      tracer().add("bench.gen.lag", s.due, s.call);
      tracer().add("core.service.submit", s.call, s.ret);
      tracer().add("core.service.inservice", s.ret, d.at);
    }
  }
  for (const Sent& s : p.sent) {
    door_us.push_back(1e6 * seconds_between(s.call, s.ret));
    lag_ms.push_back(ms(s.call - s.due));
  }
  tracer().enable(false);

  const auto delta = [](std::uint64_t end, std::uint64_t start) {
    return static_cast<double>(end - start);
  };
  const double epochs = delta(stats1.epochs, stats0.epochs);
  report.layer("bench.gen_lag_ms.p99", percentile(lag_ms, 0.99), "ms");
  report.layer("bench.coverage", latency_ms > 0 ? layer_ms / latency_ms : 0.0,
               "ratio");
  report.layer("bench.trace_overhead", p.p50_ms / base_p50 - 1.0, "ratio");
  report.layer("core.service.submit_us.p50", percentile(door_us, 0.5), "us");
  report.layer("core.service.submit_us.p99", percentile(door_us, 0.99), "us");
  report.layer("core.service.inservice_ms.p50", percentile(inservice_ms, 0.5),
               "ms");
  report.layer("core.service.inservice_ms.p99",
               percentile(inservice_ms, 0.99), "ms");
  report.layer("core.service.wait_ms.p50", percentile(wait_ms, 0.5), "ms");
  report.layer("core.service.wait_ms.p99", percentile(wait_ms, 0.99), "ms");
  report.layer("core.service.batch_mean",
               delta(stats1.completed, stats0.completed) / epochs, "count");
  report.layer("core.service.epochs", epochs, "count");
  report.layer("core.service.queue_full",
               delta(stats1.queue_full, stats0.queue_full), "count");
  report.layer("core.service.throttled",
               delta(stats1.throttled, stats0.throttled), "count");
  report.layer("core.service.invalid", delta(stats1.invalid, stats0.invalid),
               "count");
  report.layer("core.engine.drain_ms.p50",
               percentile(engines.probe_drain_ms, 0.5), "ms");
  report.layer("core.engine.drain_ms.p99",
               percentile(engines.probe_drain_ms, 0.99), "ms");
  report.layer("core.engine.submit_us.p50",
               percentile(engines.submit_us, 0.5), "us");
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  report.check(spec.plan_hits ? hit_ratio >= 0.99 : hit_ratio <= 0.01,
               "plan-cache hit ratio contradicts the workload's premise");
  report.layer("core.engine.plan_hit_ratio", hit_ratio, "ratio");
  report.layer("core.engine.place_ms.mean", mean(engines.probe_place_ms), "ms");
  report.layer("core.engine.replay_mismatch",
               static_cast<double>(engines.mismatches), "count");
  report.layer("data.generate_s", h.generate_s, "s");

  tracer().write_chrome(options.trace_path, spec.name);
}

void run_serve(const ServeSpec& spec, const RunOptions& options,
               Report& report) {
  if (options.traced) {
    run_traced(spec, options, report);
  } else {
    run_untraced(spec, options, report);
  }
}

// --- the two workloads ------------------------------------------------------

/// bench_service_load's working set: 32 star-schema queries on 16 nodes, the
/// first the big fact join, the rest shrinking.
std::vector<WorkloadPtr> hot_workloads(std::uint64_t seed) {
  std::vector<WorkloadPtr> out;
  for (std::size_t i = 0; i < 32; ++i) {
    ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(16);
    const double shrink = i == 0 ? 1.0 : 0.25 / static_cast<double>(i);
    spec.customer_bytes *= 0.1 * shrink;
    spec.orders_bytes *= 0.1 * shrink;
    spec.seed = seed + i;
    out.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  return out;
}

/// 128 distinct 64-node joins: twice the plan cache.
std::vector<WorkloadPtr> cold_workloads(std::uint64_t seed) {
  std::vector<WorkloadPtr> out;
  for (std::size_t i = 0; i < 128; ++i) {
    ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(64);
    spec.customer_bytes *= 0.01;
    spec.orders_bytes *= 0.01;
    spec.seed = ccf::util::derive_seed(seed, i);
    out.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  return out;
}

ServeSpec hot_spec() {
  ServeSpec spec;
  spec.name = "serve_hot";
  spec.options.engine.nodes = 16;
  spec.options.engine.allocator = "madd";
  spec.options.shards = 2;
  spec.options.max_batch = 2;
  spec.options.max_wait = std::chrono::microseconds(200);
  spec.options.tenants = {ccf::core::TenantSpec{.name = "t0"},
                          ccf::core::TenantSpec{.name = "t1"}};
  spec.make_workloads = hot_workloads;
  spec.warm_queries = 32;
  spec.plan_hits = true;
  spec.fixed_qps = 10'000.0;
  return spec;
}

ServeSpec cold_spec() {
  ServeSpec spec;
  spec.name = "serve_cold";
  spec.options.engine.topology = "leafspine:racks=8,hosts=8,spines=4,oversub=4";
  spec.options.engine.routing = "joint";
  spec.options.engine.allocator = "madd";
  spec.options.shards = 1;
  spec.options.max_batch = 4;
  spec.options.max_wait = std::chrono::microseconds(200);
  spec.options.tenants = {ccf::core::TenantSpec{.name = "t0"}};
  spec.make_workloads = cold_workloads;
  spec.warm_queries = 8;
  spec.fixed_qps = 300.0;
  return spec;
}

}  // namespace

void run_serve_hot(const RunOptions& options, Report& report) {
  run_serve(hot_spec(), options, report);
}

void run_serve_cold(const RunOptions& options, Report& report) {
  run_serve(cold_spec(), options, report);
}

}  // namespace ccfbench
