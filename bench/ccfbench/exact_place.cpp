// exact_place: opt::solve_exact in kParallel mode proving a stream of small
// placement instances optimal — the only workload where the branch-and-bound
// does the work (time-to-proof).
//
// Instances come from bench_opt_scale's generator at 5 nodes x 12 partitions
// with Zipf theta 0.5. That family costs the search a similar number of nodes
// on every instance (~240k nodes, ~15 ms on 4 threads), so a run over several
// hundred instances measures the solver, not the seed; at theta 0.8 and 15
// partitions the proof time is heavy-tailed (one instance in ten exceeds the
// default 5M-node limit) and a run's mean moves by +-20% with the seed.
#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "ccfbench.hpp"
#include "data/workload.hpp"
#include "opt/bnb.hpp"
#include "util/rng.hpp"

namespace ccfbench {
namespace {

constexpr std::size_t kNodes = 5;
constexpr std::size_t kPartitions = 12;
/// Instances prepared in set-up; a run that proves them all starts over, and
/// every re-proof must reproduce the first proof's T.
constexpr std::size_t kPool = 1024;
/// Instances proven again after the timed phase (the T-repeat check).
constexpr std::size_t kRecheck = 24;
/// Proofs made during set-up.
constexpr std::size_t kWarmUp = 4;
/// Optimal assignments tied on T may sum their port loads in a different
/// order, so optima are compared to 1e-9 relative, as bench_opt_scale does.
constexpr double kTolerance = 1e-9;

bool same_T(double a, double b) {
  return std::abs(a - b) <= kTolerance * std::max(std::abs(a), std::abs(b));
}

struct Instance {
  ccf::data::Workload workload;
  double heuristic_T = 0.0;  ///< the ccf scheduler's makespan
  double proven_T = -1.0;    ///< the first proof's optimum
};

struct Pool {
  std::vector<Instance> instances;
  double generate_s = 0.0;
  double heuristic_s = 0.0;
};

ccf::opt::AssignmentProblem problem_of(const Instance& instance) {
  ccf::opt::AssignmentProblem problem;
  problem.matrix = &instance.workload.matrix;
  return problem;
}

ccf::opt::BnbOptions bnb_options() {
  ccf::opt::BnbOptions options;
  options.mode = ccf::opt::BnbMode::kParallel;
  options.threads = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  options.max_nodes = 100'000'000;
  options.time_limit_s = 30.0;
  return options;
}

Pool make_pool(std::uint64_t seed) {
  Pool pool;
  pool.instances.reserve(kPool);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kPool; ++i) {
    ccf::data::WorkloadSpec spec;
    spec.nodes = kNodes;
    spec.partitions = kPartitions;
    spec.customer_bytes = 1e6;
    spec.orders_bytes = 1e7;
    spec.zipf_theta = 0.5;
    spec.skew = 0.0;
    spec.align_zipf_ranks = false;
    spec.seed = ccf::util::derive_seed(seed, i);
    pool.instances.push_back({ccf::data::generate_workload(spec)});
  }
  const Clock::time_point t1 = Clock::now();
  pool.generate_s = seconds_between(t0, t1);
  TimedScheduler heuristic(ccf::join::make_scheduler("ccf"));
  for (Instance& instance : pool.instances) {
    const ccf::opt::AssignmentProblem problem = problem_of(instance);
    instance.heuristic_T =
        ccf::opt::makespan(problem, heuristic.schedule(problem));
  }
  pool.heuristic_s = heuristic.total_s();
  // Warm-up: a few proofs, so thread start-up and first-touch allocation
  // are paid here rather than by the first timed instances.
  for (std::size_t i = 0; i < kWarmUp; ++i) {
    ccf::opt::solve_exact(problem_of(pool.instances[i]), bnb_options());
  }
  return pool;
}

/// Search effort of a stretch of proofs.
struct Work {
  double nodes = 0.0;
  double subtree_tasks = 0.0;
  std::size_t proven = 0;
};

/// Prove instances back to back for `seconds` (at least one); every proof is
/// one operation.

Work prove_for(Pool& pool, double seconds, std::size_t& cursor, Phase& phase,
               Report& report) {
  Work work;
  const ccf::opt::BnbOptions options = bnb_options();
  do {
    Instance& instance = pool.instances[cursor++ % pool.instances.size()];
    const ccf::opt::AssignmentProblem problem = problem_of(instance);
    ccf::opt::BnbResult result;
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Scope span(tracer(), "opt.solve_exact");
      result = ccf::opt::solve_exact(problem, options);
    }
    phase.add(seconds_between(t0, Clock::now()));
    work.nodes += static_cast<double>(result.nodes_explored);
    work.subtree_tasks += static_cast<double>(result.subtree_tasks);

    bool ok = result.optimal;
    const char* why = "instance not proven optimal";
    if (ok && result.T > instance.heuristic_T * (1.0 + kTolerance)) {
      ok = false;
      why = "proven optimum exceeds the ccf heuristic's T";
    }
    if (ok && instance.proven_T >= 0.0 &&
        !same_T(result.T, instance.proven_T)) {
      ok = false;
      why = "re-proof changed the optimum T";
    }
    if (ok) {
      ++work.proven;
      if (instance.proven_T < 0.0) instance.proven_T = result.T;
    }
    report.op(ok, why);
  } while (phase.elapsed_s() < seconds);
  phase.finish();
  return work;
}

/// The T-repeat check: prove the first instances again (untimed) and require
/// the identical optimum; also the deterministic output of the run.
void recheck(Pool& pool, std::size_t proved, Report& report) {
  const std::size_t n = std::min({kRecheck, proved, pool.instances.size()});
  double T_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Instance& instance = pool.instances[i];
    const ccf::opt::BnbResult result =
        ccf::opt::solve_exact(problem_of(instance), bnb_options());
    report.check(result.optimal && same_T(result.T, instance.proven_T),
                 "repeated proof changed the optimum T");
    T_sum += result.T;
  }
  report.output("exact_place.T_sum_first24", T_sum);
}

}  // namespace

void run_exact_place(const RunOptions& options, Report& report) {
  double generate_s = 0.0, heuristic_s = 0.0;
  Pool pool = timed_setup(report, [&] {
    Pool p = make_pool(options.seed);
    generate_s = p.generate_s;
    heuristic_s = p.heuristic_s;
    return p;
  });
  std::size_t cursor = 0;

  if (!options.traced) {
    Phase phase;
    prove_for(pool, options.seconds, cursor, phase, report);
    report_batch(report, phase);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    recheck(pool, cursor, report);
    return;
  }

  // Traced run: an untraced half (the overhead baseline and the process
  // counters), then the same stream with a span around every proof.
  Phase plain;
  prove_for(pool, options.seconds / 2, cursor, plain, report);
  report_proc(report, plain, static_cast<double>(plain.ops().size()));

  tracer().enable(true);
  Phase traced;
  Work work;
  {
    const Tracer::Scope root(tracer(), kTracedSpan);
    work = prove_for(pool, options.seconds / 2, cursor, traced, report);
  }
  tracer().enable(false);
  recheck(pool, cursor, report);

  const double proofs = static_cast<double>(traced.ops().size());
  const double solve_s = tracer().total_s("opt.solve_exact");
  report.layer("opt.bnb.nodes", work.nodes / proofs, "count");
  report.layer("opt.bnb.nodes_per_s", work.nodes / solve_s, "1/s");
  report.layer("opt.bnb.subtree_tasks", work.subtree_tasks / proofs, "count");
  report.layer("opt.bnb.proven", static_cast<double>(work.proven) / proofs,
               "ratio");
  report.layer("join.schedule_s.ccf", heuristic_s, "s");
  report.layer("data.generate_s", generate_s, "s");
  report_trace(report, plain, traced);
  tracer().write_chrome(options.trace_path, "exact_place");
}

}  // namespace ccfbench
