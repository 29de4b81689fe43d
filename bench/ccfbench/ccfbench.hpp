// ccfbench — the repository's end-to-end benchmark (see README.md).
//
// Shared harness pieces: the per-run Report, the in-memory span recorder the
// traced run uses, order statistics, process counters, and the two layer
// decorators (rate allocator, placement scheduler) that time calls into the
// library from the outside. Every workload lives in its own translation unit
// and is reached through run_workload().
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "join/schedulers.hpp"
#include "net/allocator.hpp"

namespace ccfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- order statistics -------------------------------------------------------

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> values);
/// Nearest-rank percentile for q in (0, 1]; 0 when empty. +inf samples sort
/// last, so a refused request pushes the tail to +inf.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// --- process counters -------------------------------------------------------

struct Usage {
  double cpu_s = 0.0;         ///< user + system CPU of every thread
  double ctx_switches = 0.0;  ///< voluntary + involuntary
};
Usage usage_now();
/// Peak resident set of this process image (VmHWM), MB.
double peak_rss_mb();

// --- one workload run -------------------------------------------------------

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 0.0;    ///< length of the timed phase
  bool traced = false;     ///< per-layer run (spans + replay passes)
  std::string trace_path;  ///< Chrome trace-event output of a traced run
};

/// The outcome of one workload run: metrics by name, operation counts and
/// output checks. Untraced runs fill metric(); traced runs fill layer().
class Report {
 public:
  struct Value {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
  /// A value that depends on the seed alone (a simulated time, an event
  /// count); compare.py requires it to repeat exactly across runs.
  void output(std::string name, double value);

  /// One attempted operation; a failed one records why.
  void op(bool ok, std::string_view why = {});
  /// An output check that belongs to no single operation.
  void check(bool ok, std::string_view why);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  bool correct() const noexcept { return failed_ == 0; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  const std::vector<Value>& metrics() const noexcept { return metrics_; }
  const std::vector<Value>& layers() const noexcept { return layers_; }
  const std::vector<Value>& outputs() const noexcept { return outputs_; }

 private:
  void fail(std::string_view why);

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;  ///< the first few failure reasons
  std::vector<Value> metrics_, layers_, outputs_;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"), and the per-layer metrics (BENCHMARK.json "per_layer").
/// A layer a workload never calls reports 0.
struct MetricName {
  std::string_view name;
  std::string_view unit;
};
std::span<const MetricName> end_to_end_metrics();
std::span<const MetricName> per_layer_metrics();

// --- spans ------------------------------------------------------------------

/// In-memory span recorder of the traced run. Spans are opened only on the
/// benchmark's main thread (every layer call the benchmark wraps is made
/// there), so recording is a vector append; when disabled every call is one
/// branch. Names must have static storage duration.
class Tracer {
 public:
  /// RAII span: opened on construction, closed on destruction, the parent
  /// of every span opened or added while it is open.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
  };

  void enable(bool on) noexcept { enabled_ = on; }

  /// Record a finished span under the currently open scope.
  void add(std::string_view name, Clock::time_point start,
           Clock::time_point end);

  /// Durations in seconds of the spans named `name`, in recording order.
  std::vector<double> durations_s(std::string_view name) const;
  double total_s(std::string_view name) const;
  /// Share of the duration of the spans named `root` that their direct
  /// children cover.
  double coverage(std::string_view root) const;
  /// Write the spans to `path` as Chrome trace-event JSON ("X" events; args
  /// carry the parent index). At most 200,000 spans are written; the
  /// aggregates above use all of them.
  void write_chrome(const std::string& path, std::string_view workload) const;

 private:
  struct Span {
    std::string_view name;
    std::int64_t start_ns = 0;  ///< since the tracer's epoch
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index of the enclosing span, -1 for none
  };

  std::int64_t ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// The process-wide recorder (one workload runs per process).
Tracer& tracer();

/// The root span of a batch workload's traced half; bench.coverage is the
/// share of it that layer spans cover.
inline constexpr std::string_view kTracedSpan = "bench.traced";

// --- layer decorators -------------------------------------------------------

/// Times every allocate() of the wrapped allocator: a net.alloc.allocate span
/// each when tracing, plus running totals. Forwards both entry points, so
/// the simulation is the undecorated one call for call.
class TimedAllocator final : public ccf::net::RateAllocator {
 public:
  explicit TimedAllocator(std::unique_ptr<ccf::net::RateAllocator> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void allocate(ccf::net::AllocatorContext& ctx,
                const ccf::net::ActiveFlows& flows,
                std::span<ccf::net::CoflowState> coflows, double now) override;
  void allocate(std::span<ccf::net::Flow> active,
                std::span<ccf::net::CoflowState> coflows,
                const ccf::net::Network& network, double now) override;

  double self_s() const noexcept { return self_s_; }
  std::size_t calls() const noexcept { return calls_; }

 private:
  std::unique_ptr<ccf::net::RateAllocator> inner_;
  double self_s_ = 0.0;
  std::size_t calls_ = 0;
};

/// Times PartitionScheduler::schedule (a join.schedule span when tracing).
class TimedScheduler final : public ccf::join::PartitionScheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<ccf::join::PartitionScheduler> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  ccf::join::Assignment schedule(
      const ccf::join::AssignmentProblem& problem) override;

  double total_s() const noexcept { return total_s_; }

 private:
  std::unique_ptr<ccf::join::PartitionScheduler> inner_;
  double total_s_ = 0.0;
};

// --- timed phases -----------------------------------------------------------

/// Wall time, CPU and per-operation latencies of one timed phase.
class Phase {
 public:
  Phase() : start_(Clock::now()), usage_(usage_now()) {}

  void add(double op_s) { ops_.push_back(op_s); }
  double elapsed_s() const { return seconds_between(start_, Clock::now()); }
  /// Stop the clocks (idempotent: the first call wins).
  void finish();

  const std::vector<double>& ops() const noexcept { return ops_; }
  double wall_s() const noexcept { return wall_s_; }
  double cpu_s() const noexcept { return cpu_s_; }
  double ctx_switches() const noexcept { return ctx_switches_; }

 private:
  Clock::time_point start_;
  Usage usage_;
  std::vector<double> ops_;
  double wall_s_ = -1.0, cpu_s_ = 0.0, ctx_switches_ = 0.0;
};

/// Build a workload's inputs five times, freeing each copy before the next
/// is built, and report the median build time as setup_s. Returns the last
/// copy.
template <typename Build>
auto timed_setup(Report& report, Build&& build) {
  using Result = decltype(build());
  std::vector<double> times;
  std::unique_ptr<Result> kept;
  for (int i = 0; i < 5; ++i) {
    kept.reset();
    const Clock::time_point t0 = Clock::now();
    kept = std::make_unique<Result>(build());
    times.push_back(seconds_between(t0, Clock::now()));
  }
  report.metric("setup_s", median(times), "s");
  return std::move(*kept);
}

/// p50_ms and p90_ms of the per-operation latency and ops_per_s
/// (operations per wall second) of a batch phase.
void report_batch(Report& report, const Phase& phase);
/// proc.* metrics of a finished phase that ran `ops` operations.
void report_proc(Report& report, const Phase& phase, double ops);
/// bench.coverage of the kTracedSpan root and bench.trace_overhead, the
/// traced half's mean operation time over the untraced half's, minus 1.
void report_trace(Report& report, const Phase& plain, const Phase& traced);

// --- workloads --------------------------------------------------------------

std::span<const std::string_view> workload_names();
/// Run one workload in this process; throws std::invalid_argument on an
/// unknown name.
Report run_workload(std::string_view name, const RunOptions& options);

void run_serve_hot(const RunOptions& options, Report& report);
void run_serve_cold(const RunOptions& options, Report& report);
void run_paper_join(const RunOptions& options, Report& report);
void run_trace_sim(const RunOptions& options, Report& report);
void run_exact_place(const RunOptions& options, Report& report);

}  // namespace ccfbench
