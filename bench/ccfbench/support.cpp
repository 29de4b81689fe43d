#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "ccfbench.hpp"

namespace ccfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Usage usage_now() {
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return {secs(u.ru_utime) + secs(u.ru_stime),
          static_cast<double>(u.ru_nvcsw + u.ru_nivcsw)};
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so it would
  // report the launching process's footprint (a Python launcher's ~14 MB)
  // whenever that exceeds this process's own.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // kB on Linux
}

// --- phases -----------------------------------------------------------------

void Phase::finish() {
  if (wall_s_ >= 0.0) return;
  wall_s_ = elapsed_s();
  const Usage now = usage_now();
  cpu_s_ = now.cpu_s - usage_.cpu_s;
  ctx_switches_ = now.ctx_switches - usage_.ctx_switches;
}

void report_batch(Report& report, const Phase& phase) {
  report.metric("p50_ms", 1e3 * median(phase.ops()), "ms");
  report.metric("p90_ms", 1e3 * percentile(phase.ops(), 0.9), "ms");
  report.metric("ops_per_s",
                static_cast<double>(phase.ops().size()) / phase.wall_s(),
                "1/s");
}

void report_trace(Report& report, const Phase& plain, const Phase& traced) {
  report.layer("bench.coverage", tracer().coverage(kTracedSpan), "ratio");
  report.layer("bench.trace_overhead",
               mean(traced.ops()) / mean(plain.ops()) - 1.0, "ratio");
}

void report_proc(Report& report, const Phase& phase, double ops) {
  if (ops <= 0.0) return;
  report.layer("proc.cpu_ms_per_op", 1e3 * phase.cpu_s() / ops, "ms");
  report.layer("proc.ctx_switches_per_op", phase.ctx_switches() / ops, "count");
  report.layer("proc.cpu_util", phase.cpu_s() / phase.wall_s(), "ratio");
}

// --- Report -----------------------------------------------------------------

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::layer(std::string name, double value, std::string unit) {
  layers_.push_back({std::move(name), value, std::move(unit)});
}

void Report::output(std::string name, double value) {
  outputs_.push_back({std::move(name), value, ""});
}

void Report::op(bool ok, std::string_view why) {
  ++attempted_;
  if (!ok) fail(why);
}

void Report::check(bool ok, std::string_view why) {
  if (!ok) fail(why);
}

void Report::fail(std::string_view why) {
  ++failed_;
  if (errors_.size() < 8) errors_.emplace_back(why);
}

namespace {

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"}, {"p50_ms", "ms"},
    {"p90_ms", "ms"},     {"ops_per_s", "1/s"},
};

constexpr MetricName kPerLayer[] = {
    {"bench.gen_lag_ms.p99", "ms"},
    {"bench.coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"core.service.submit_us.p50", "us"},
    {"core.service.submit_us.p99", "us"},
    {"core.service.inservice_ms.p50", "ms"},
    {"core.service.inservice_ms.p99", "ms"},
    {"core.service.wait_ms.p50", "ms"},
    {"core.service.wait_ms.p99", "ms"},
    {"core.service.batch_mean", "count"},
    {"core.service.epochs", "count"},
    {"core.service.queue_full", "count"},
    {"core.service.throttled", "count"},
    {"core.service.invalid", "count"},
    {"core.engine.drain_ms.p50", "ms"},
    {"core.engine.drain_ms.p99", "ms"},
    {"core.engine.submit_us.p50", "us"},
    {"core.engine.plan_hit_ratio", "ratio"},
    {"core.engine.place_ms.mean", "ms"},
    {"core.engine.replay_mismatch", "count"},
    {"core.stages.prepare_ms.p50", "ms"},
    {"core.stages.place_ms.p50", "ms"},
    {"core.stages.flows_ms.p50", "ms"},
    {"core.stages.metrics_ms.p50", "ms"},
    {"core.stages.coflow_ms.p50", "ms"},
    {"join.schedule_s.hash", "s"},
    {"join.schedule_s.mini", "s"},
    {"join.schedule_s.ccf", "s"},
    {"join.schedule_s.ccf-ls", "s"},
    {"net.routing.choose_ms.p50", "ms"},
    {"net.sim.add_s.madd", "s"},
    {"net.sim.add_s.sincronia", "s"},
    {"net.sim.add_s.aalo", "s"},
    {"net.sim.run_s.madd", "s"},
    {"net.sim.run_s.sincronia", "s"},
    {"net.sim.run_s.aalo", "s"},
    {"net.sim.engine_s.madd", "s"},
    {"net.sim.engine_s.sincronia", "s"},
    {"net.sim.engine_s.aalo", "s"},
    {"net.sim.events.madd", "count"},
    {"net.sim.events.sincronia", "count"},
    {"net.sim.events.aalo", "count"},
    {"net.sim.events_per_s.madd", "1/s"},
    {"net.sim.events_per_s.sincronia", "1/s"},
    {"net.sim.events_per_s.aalo", "1/s"},
    {"net.alloc.self_s.madd", "s"},
    {"net.alloc.self_s.sincronia", "s"},
    {"net.alloc.self_s.aalo", "s"},
    {"net.alloc.calls.madd", "count"},
    {"net.alloc.calls.sincronia", "count"},
    {"net.alloc.calls.aalo", "count"},
    {"opt.bnb.nodes", "count"},
    {"opt.bnb.nodes_per_s", "1/s"},
    {"opt.bnb.subtree_tasks", "count"},
    {"opt.bnb.proven", "ratio"},
    {"data.generate_s", "s"},
    {"proc.cpu_ms_per_op", "ms"},
    {"proc.ctx_switches_per_op", "count"},
    {"proc.cpu_util", "ratio"},
};

}  // namespace

std::span<const MetricName> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricName> per_layer_metrics() { return kPerLayer; }

// --- Tracer -----------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  saved_parent_ = tracer.open_;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  const std::int64_t now = tracer.ns(Clock::now());
  tracer.spans_.push_back({name, now, now, saved_parent_});
  tracer.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns =
      tracer_->ns(Clock::now());
  tracer_->open_ = saved_parent_;
}

void Tracer::add(std::string_view name, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, ns(start), ns(end), open_});
}

std::vector<double> Tracer::durations_s(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double Tracer::total_s(std::string_view name) const {
  const std::vector<double> d = durations_s(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

double Tracer::coverage(std::string_view root) const {
  // Children are recorded after their parent and, on one thread, never
  // overlap each other, so the covered time is the sum of their durations.
  double root_ns = 0.0, covered_ns = 0.0;
  std::vector<std::uint8_t> is_root(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == root) {
      is_root[i] = 1;
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    } else if (s.parent >= 0 && is_root[static_cast<std::size_t>(s.parent)]) {
      covered_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return root_ns > 0.0 ? covered_ns / root_ns : 0.0;
}

void Tracer::write_chrome(const std::string& path,
                          std::string_view workload) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::size_t n = std::min<std::size_t>(200'000, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": \"" << s.name << "\", \"cat\": \"" << workload
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < n ? ",\n" : "\n");
  }
  out << "], \"otherData\": {\"workload\": \"" << workload
      << "\", \"spans\": " << spans_.size() << ", \"written\": " << n
      << "}}\n";
}

// --- decorators -------------------------------------------------------------

void TimedAllocator::allocate(ccf::net::AllocatorContext& ctx,
                              const ccf::net::ActiveFlows& flows,
                              std::span<ccf::net::CoflowState> coflows,
                              double now) {
  const Clock::time_point t0 = Clock::now();
  inner_->allocate(ctx, flows, coflows, now);
  const Clock::time_point t1 = Clock::now();
  self_s_ += seconds_between(t0, t1);
  ++calls_;
  tracer().add("net.alloc.allocate", t0, t1);
}

void TimedAllocator::allocate(std::span<ccf::net::Flow> active,
                              std::span<ccf::net::CoflowState> coflows,
                              const ccf::net::Network& network, double now) {
  const Clock::time_point t0 = Clock::now();
  inner_->allocate(active, coflows, network, now);
  const Clock::time_point t1 = Clock::now();
  self_s_ += seconds_between(t0, t1);
  ++calls_;
  tracer().add("net.alloc.allocate", t0, t1);
}

ccf::join::Assignment TimedScheduler::schedule(
    const ccf::join::AssignmentProblem& problem) {
  const Clock::time_point t0 = Clock::now();
  ccf::join::Assignment out = inner_->schedule(problem);
  const Clock::time_point t1 = Clock::now();
  total_s_ += seconds_between(t0, t1);
  tracer().add("join.schedule", t0, t1);
  return out;
}

// --- dispatch ---------------------------------------------------------------

namespace {
constexpr std::string_view kWorkloads[] = {"serve_hot", "serve_cold",
                                           "paper_join", "trace_sim",
                                           "exact_place"};
}  // namespace

std::span<const std::string_view> workload_names() { return kWorkloads; }

Report run_workload(std::string_view name, const RunOptions& options) {
  Report report;
  if (name == "serve_hot") {
    run_serve_hot(options, report);
  } else if (name == "serve_cold") {
    run_serve_cold(options, report);
  } else if (name == "paper_join") {
    run_paper_join(options, report);
  } else if (name == "trace_sim") {
    run_trace_sim(options, report);
  } else if (name == "exact_place") {
    run_exact_place(options, report);
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return report;
}

}  // namespace ccfbench
