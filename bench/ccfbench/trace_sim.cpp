// trace_sim: synthetic FB-shaped coflow traces ingested sparse into
// net::Simulator under the three allocator families — FIFO-MADD ("madd"),
// ordering ("sincronia") and D-CLAS max-min ("aalo"). Thousands of narrow
// events and no Service or placement: the simulator's event core and the
// allocators do nearly all the work.
//
// One round simulates one trace under each allocator; every simulation
// (add_coflow + run) is one operation. Rounds use a fresh trace each, so a
// run's statistics average over dozens of traces rather than hinge on one
// seed's heaviest coflows: a trace's aalo cost varies by +-60% with its heavy
// coflows, and a 16 s run of 250-coflow traces (~0.25 s a round) averages
// some sixty of them, where 1,500-coflow traces would allow one.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "ccfbench.hpp"
#include "core/registry.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "util/rng.hpp"

namespace ccfbench {
namespace {

constexpr std::size_t kRacks = 1000;
constexpr std::size_t kCoflows = 250;
constexpr const char* kAllocators[] = {"madd", "sincronia", "aalo"};
constexpr std::size_t kAllocatorCount = std::size(kAllocators);
/// Traces generated during set-up, about what a 16 s run simulates (one
/// that needs more generates them outside the timed operations).
constexpr std::size_t kSetupTraces = 64;

struct Trace {
  std::vector<ccf::net::SparseCoflowSpec> specs;
  double bytes = 0.0;  ///< submitted volume
};

struct Traces {
  std::uint64_t seed = 0;
  std::vector<Trace> traces;
  double generate_s = 0.0;

  const Trace& at(std::size_t index) {
    while (traces.size() <= index) {
      // The arrival window grows with the coflow count (~167 arrivals per
      // simulated second), bench_sim_scale's scale-point load.
      ccf::net::SyntheticTraceOptions opts;
      opts.racks = kRacks;
      opts.coflows = kCoflows;
      opts.duration_seconds = 6e-3 * static_cast<double>(kCoflows);
      ccf::util::Pcg32 rng(
          ccf::util::derive_seed(ccf::util::derive_seed(seed, 83),
                                 traces.size()),
          83);
      const Clock::time_point t0 = Clock::now();
      Trace t{ccf::net::to_sparse_coflow_specs(
          ccf::net::generate_synthetic_trace(opts, rng))};
      generate_s += seconds_between(t0, Clock::now());
      for (const auto& spec : t.specs) {
        for (const ccf::net::Flow& f : spec.flows) t.bytes += f.volume;
      }
      traces.push_back(std::move(t));
    }
    return traces[index];
  }
};

/// What one simulation produced and cost.
struct Sim {
  std::size_t allocator = 0;
  std::size_t trace = 0;
  double add_s = 0.0, run_s = 0.0;
  double alloc_s = 0.0;
  std::size_t alloc_calls = 0;
  std::size_t events = 0;
  std::vector<double> completions;
};

Sim simulate(const Trace& trace, std::size_t trace_index, std::size_t a,
             bool decorated, Report& report) {
  std::unique_ptr<ccf::net::RateAllocator> allocator =
      ccf::core::registry::make_allocator(kAllocators[a]);
  TimedAllocator* timed = nullptr;
  if (decorated) {
    auto wrapper = std::make_unique<TimedAllocator>(std::move(allocator));
    timed = wrapper.get();
    allocator = std::move(wrapper);
  }
  ccf::net::Simulator sim(ccf::net::Fabric(kRacks), std::move(allocator));

  Sim out;
  out.allocator = a;
  out.trace = trace_index;
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope span(tracer(), "net.sim.add");
    for (const auto& spec : trace.specs) sim.add_coflow(spec);
  }
  const Clock::time_point t1 = Clock::now();
  ccf::net::SimReport result;
  {
    const Tracer::Scope span(tracer(), "net.sim.run");
    result = sim.run();
  }
  const Clock::time_point t2 = Clock::now();
  out.add_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  if (timed != nullptr) {
    out.alloc_s = timed->self_s();
    out.alloc_calls = timed->calls();
  }
  out.events = result.events;

  bool ok = result.coflows.size() == trace.specs.size();
  for (const ccf::net::CoflowResult& c : result.coflows) {
    ok = ok && !c.rejected && std::isfinite(c.completion) &&
         c.completion >= c.arrival;
    out.completions.push_back(c.completion);
  }
  report.op(ok, "a coflow did not complete");
  report.check(std::abs(result.total_bytes - trace.bytes) <= 1e-9 * trace.bytes,
               "bytes moved differ from bytes submitted");
  return out;
}

/// Simulate whole rounds (each allocator once on a fresh trace) until
/// `seconds` have passed; at least one round.
std::vector<Sim> simulate_for(Traces& traces, double seconds, bool decorated,
                              Phase& phase, Report& report) {
  std::vector<Sim> sims;
  double last_round_s = 0.0;
  for (std::size_t t = 0;
       t == 0 || phase.elapsed_s() + last_round_s <= seconds; ++t) {
    const Trace& trace = traces.at(t);  // generated outside the operations
    const double round_start = phase.elapsed_s();
    for (std::size_t a = 0; a < kAllocatorCount; ++a) {
      sims.push_back(simulate(trace, t, a, decorated, report));
      phase.add(sims.back().add_s + sims.back().run_s);
    }
    last_round_s = phase.elapsed_s() - round_start;
  }
  phase.finish();
  return sims;
}

void report_outputs(const std::vector<Sim>& sims, Report& report) {
  for (const Sim& s : sims) {
    if (s.trace != 0) continue;
    double sum = 0.0;
    for (const double c : s.completions) sum += c;
    const std::string a = kAllocators[s.allocator];
    report.output("trace_sim.events." + a, static_cast<double>(s.events));
    report.output("trace_sim.completion_sum_s." + a, sum);
  }
}

}  // namespace

void run_trace_sim(const RunOptions& options, Report& report) {
  Traces traces = timed_setup(report, [&] {
    Traces t;
    t.seed = options.seed;
    for (std::size_t i = 0; i < kSetupTraces; ++i) t.at(i);
    return t;
  });
  const double setup_generate_s = traces.generate_s;

  if (!options.traced) {
    Phase phase;
    const std::vector<Sim> sims =
        simulate_for(traces, options.seconds, false, phase, report);
    report_batch(report, phase);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report_outputs(sims, report);
    return;
  }

  Phase plain;
  const std::vector<Sim> base =
      simulate_for(traces, options.seconds / 2, false, plain, report);
  report_proc(report, plain, static_cast<double>(plain.ops().size()));
  report_outputs(base, report);

  tracer().enable(true);
  Phase traced;
  std::vector<Sim> sims;
  {
    const Tracer::Scope root(tracer(), kTracedSpan);
    sims = simulate_for(traces, options.seconds / 2, true, traced, report);
  }
  tracer().enable(false);

  // The decorated simulation must be the undecorated one, event for event.
  for (const Sim& s : sims) {
    for (const Sim& b : base) {
      if (b.trace == s.trace && b.allocator == s.allocator) {
        report.check(b.events == s.events && b.completions == s.completions,
                     "decorated run diverged from the undecorated run");
      }
    }
  }

  for (std::size_t a = 0; a < kAllocatorCount; ++a) {
    std::vector<double> add, run, self, engine, rate;
    for (const Sim& s : sims) {
      if (s.allocator != a) continue;
      add.push_back(s.add_s);
      run.push_back(s.run_s);
      self.push_back(s.alloc_s);
      engine.push_back(s.run_s - s.alloc_s);
      rate.push_back(static_cast<double>(s.events) / s.run_s);
      if (s.trace == 0) {
        const std::string name = kAllocators[a];
        report.layer("net.sim.events." + name, static_cast<double>(s.events),
                     "count");
        report.layer("net.alloc.calls." + name,
                     static_cast<double>(s.alloc_calls), "count");
      }
    }
    const std::string name = kAllocators[a];
    report.layer("net.sim.add_s." + name, median(add), "s");
    report.layer("net.sim.run_s." + name, median(run), "s");
    report.layer("net.sim.engine_s." + name, median(engine), "s");
    report.layer("net.sim.events_per_s." + name, median(rate), "1/s");
    report.layer("net.alloc.self_s." + name, median(self), "s");
  }
  report.layer("data.generate_s", setup_generate_s, "s");
  report_trace(report, plain, traced);
  tracer().write_chrome(options.trace_path, "trace_sim");
}

}  // namespace ccfbench
