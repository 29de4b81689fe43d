// paper_join: the paper's own experiment — core::run_pipeline over the
// Fig. 5 axis, paper_default(n) for n in {250, 500, 750, 1000} under hash,
// mini, ccf and ccf-ls with each system's paper configuration. Placement
// dominates ccf/ccf-ls at large n, and hash hands the simulator one very
// wide coflow (about a million flows at n = 1000).
//
// One sweep runs the 16 pipelines; every pipeline is one operation. The
// traced run replays each pipeline stage by stage (core::stage_*) into a
// standalone simulator, and that replay must reproduce run_pipeline's CCT,
// Γ and traffic bit for bit.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccfbench.hpp"
#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "core/stages.hpp"
#include "data/workload.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace ccfbench {
namespace {

constexpr std::size_t kNodes[] = {250, 500, 750, 1000};
constexpr const char* kSystems[] = {"hash", "mini", "ccf", "ccf-ls"};
constexpr std::size_t kSystemCount = std::size(kSystems);
constexpr std::size_t kPoints = std::size(kNodes) * kSystemCount;

struct Inputs {
  std::vector<std::shared_ptr<const ccf::data::Workload>> workloads;
  double generate_s = 0.0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const Clock::time_point t0 = Clock::now();
  for (const std::size_t n : kNodes) {
    ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(n);
    spec.seed = ccf::util::derive_seed(seed, n);
    in.workloads.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  in.generate_s = seconds_between(t0, Clock::now());
  // Warm-up: one small pipeline, so first-run heap growth is paid here.
  ccf::core::run_pipeline(*in.workloads.front(),
                          ccf::core::PipelineOptions::paper_system("mini"));
  return in;
}

/// The outputs of one pipeline that a repeat or a replay must reproduce.
struct Outcome {
  double cct = 0.0, gamma = 0.0, traffic = 0.0;
  bool operator==(const Outcome&) const = default;
};

/// Run whole sweeps until `seconds` have passed (at least one); returns the
/// first sweep's outcomes in point order.
std::vector<Outcome> sweep_for(const Inputs& in, double seconds, Phase& phase,
                               Report& report) {
  std::vector<Outcome> first;
  double last_sweep_s = 0.0;
  for (std::size_t sweep = 0;
       sweep == 0 || phase.elapsed_s() + last_sweep_s <= seconds; ++sweep) {
    const double sweep_start = phase.elapsed_s();
    for (std::size_t p = 0; p < kPoints; ++p) {
      const ccf::data::Workload& workload = *in.workloads[p / kSystemCount];
      const Clock::time_point t0 = Clock::now();
      const ccf::core::RunReport r = ccf::core::run_pipeline(
          workload,
          ccf::core::PipelineOptions::paper_system(kSystems[p % kSystemCount]));
      phase.add(seconds_between(t0, Clock::now()));

      const Outcome o{r.cct_seconds, r.gamma_seconds, r.traffic_bytes};
      // A single coflow under MADD finishes exactly at its bound Γ (and no
      // schedule beats Γ).
      bool ok = std::abs(o.cct - o.gamma) <= 1e-9 * o.gamma;
      const char* why = "simulated CCT differs from the analytic bound";
      if (ok && sweep > 0 && !(o == first[p])) {
        ok = false;
        why = "a repeated pipeline changed its result";
      }
      report.op(ok, why);
      if (sweep == 0) first.push_back(o);
    }
    last_sweep_s = phase.elapsed_s() - sweep_start;
  }
  phase.finish();

  for (std::size_t n = 0; n < std::size(kNodes); ++n) {
    const double hash = first[n * kSystemCount + 0].traffic;
    const double mini = first[n * kSystemCount + 1].traffic;
    const double ccf = first[n * kSystemCount + 2].traffic;
    report.check(mini < ccf && ccf < hash,
                 "traffic is not ordered mini < ccf < hash");
  }
  double cct_sum = 0.0, traffic_sum = 0.0;
  for (const Outcome& o : first) {
    cct_sum += o.cct;
    traffic_sum += o.traffic;
  }
  report.output("paper_join.avg_cct_s", cct_sum / kPoints);
  report.output("paper_join.traffic_bytes", traffic_sum);
  return first;
}

/// Per-sweep totals of the stage replay.
struct ReplaySweep {
  double schedule_s[kSystemCount] = {};
  double add_s = 0.0, run_s = 0.0, alloc_s = 0.0;
  double events = 0.0, calls = 0.0;
};

/// One pipeline replayed stage by stage, each stage call under its span.
Outcome replay_pipeline(const std::shared_ptr<const ccf::data::Workload>& w,
                        std::size_t system, ReplaySweep& totals) {
  const ccf::core::PipelineOptions options =
      ccf::core::PipelineOptions::paper_system(kSystems[system]);
  ccf::core::RunContext ctx;
  ctx.name = options.scheduler;
  ctx.workload = w;
  ctx.scheduler_name = options.scheduler;
  ctx.skew_handling = options.skew_handling;
  TimedScheduler scheduler(
      ccf::core::registry::make_scheduler(options.scheduler));
  const ccf::net::Fabric fabric(w->matrix.nodes(), options.port_rate);
  const ccf::net::SimConfig config;

  std::optional<ccf::net::SparseCoflowSpec> spec;
  {
    const Tracer::Scope span(tracer(), "core.stages.prepare");
    ccf::core::stage_prepare(ctx);
  }
  {
    const Tracer::Scope span(tracer(), "core.stages.place");
    ccf::core::stage_place(ctx, scheduler);
  }
  {
    const Tracer::Scope span(tracer(), "core.stages.flows");
    ccf::core::stage_flows(ctx);
  }
  {
    const Tracer::Scope span(tracer(), "core.stages.metrics");
    ccf::core::stage_metrics(ctx, fabric);
  }
  {
    const Tracer::Scope span(tracer(), "core.stages.coflow");
    spec.emplace(ccf::core::stage_coflow(ctx, config.completion_epsilon));
  }
  auto allocator = std::make_unique<TimedAllocator>(
      ccf::core::registry::make_allocator(options.allocator));
  const TimedAllocator& timed = *allocator;
  ccf::net::Simulator sim(fabric, std::move(allocator), config);
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope span(tracer(), "net.sim.add");
    sim.add_coflow(std::move(*spec));
  }
  const Clock::time_point t1 = Clock::now();
  ccf::net::SimReport result;
  {
    const Tracer::Scope span(tracer(), "net.sim.run");
    result = sim.run();
  }
  totals.schedule_s[system] += scheduler.total_s();
  totals.add_s += seconds_between(t0, t1);
  totals.run_s += seconds_between(t1, Clock::now());
  totals.alloc_s += timed.self_s();
  totals.calls += static_cast<double>(timed.calls());
  totals.events += static_cast<double>(result.events);
  return {result.coflows.front().cct(), ctx.gamma_seconds, ctx.traffic_bytes};
}

}  // namespace

void run_paper_join(const RunOptions& options, Report& report) {
  const Inputs in =
      timed_setup(report, [&] { return make_inputs(options.seed); });

  if (!options.traced) {
    Phase phase;
    sweep_for(in, options.seconds, phase, report);
    report_batch(report, phase);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Phase plain;
  const std::vector<Outcome> expected =
      sweep_for(in, options.seconds / 2, plain, report);
  report_proc(report, plain, static_cast<double>(plain.ops().size()));

  tracer().enable(true);
  Phase traced;
  std::vector<ReplaySweep> sweeps;
  {
    const Tracer::Scope root(tracer(), kTracedSpan);
    double last_sweep_s = 0.0;
    while (sweeps.empty() ||
           traced.elapsed_s() + last_sweep_s <= options.seconds / 2) {
      const double sweep_start = traced.elapsed_s();
      ReplaySweep& totals = sweeps.emplace_back();
      for (std::size_t p = 0; p < kPoints; ++p) {
        const Clock::time_point t0 = Clock::now();
        const Outcome o =
            replay_pipeline(in.workloads[p / kSystemCount], p % kSystemCount,
                            totals);
        traced.add(seconds_between(t0, Clock::now()));
        report.check(o == expected[p],
                     "stage replay differs from run_pipeline");
      }
      last_sweep_s = traced.elapsed_s() - sweep_start;
    }
    traced.finish();
  }
  tracer().enable(false);

  for (const char* stage : {"prepare", "place", "flows", "metrics", "coflow"}) {
    const std::string span = std::string("core.stages.") + stage;
    report.layer(span + "_ms.p50", 1e3 * median(tracer().durations_s(span)),
                 "ms");
  }

  const auto sweep_median = [&](auto field) {
    std::vector<double> v;
    for (const ReplaySweep& s : sweeps) v.push_back(field(s));
    return median(v);
  };
  for (std::size_t sys = 0; sys < kSystemCount; ++sys) {
    report.layer(std::string("join.schedule_s.") + kSystems[sys],
                 sweep_median([&](const ReplaySweep& s) {
                   return s.schedule_s[sys];
                 }),
                 "s");
  }
  const double run_s =
      sweep_median([](const ReplaySweep& s) { return s.run_s; });
  const double alloc_s =
      sweep_median([](const ReplaySweep& s) { return s.alloc_s; });
  const double events = sweeps.front().events;
  report.layer("net.sim.add_s.madd",
               sweep_median([](const ReplaySweep& s) { return s.add_s; }), "s");
  report.layer("net.sim.run_s.madd", run_s, "s");
  report.layer("net.sim.engine_s.madd",
               sweep_median([](const ReplaySweep& s) {
                 return s.run_s - s.alloc_s;
               }),
               "s");
  report.layer("net.sim.events.madd", events, "count");
  report.layer("net.sim.events_per_s.madd", events / run_s, "1/s");
  report.layer("net.alloc.self_s.madd", alloc_s, "s");
  report.layer("net.alloc.calls.madd", sweeps.front().calls, "count");
  report.layer("data.generate_s", in.generate_s, "s");
  report_trace(report, plain, traced);
  tracer().write_chrome(options.trace_path, "paper_join");
}

}  // namespace ccfbench
