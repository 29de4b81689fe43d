// Sustained-load harness for the always-on scheduling service
// (core::Service): an open-arrival client pushes the engine-throughput
// working set (32 prepared star-schema queries on 16 nodes, CCF placement,
// MADD inter-coflow scheduling) at a Service as fast as admission allows,
// and the harness reports end-to-end queries/sec plus submit-to-drain
// latency percentiles. This is the service counterpart of
// bench_online_coflows --throughput: that one times a single cold 32-query
// epoch; this one measures the steady state the Service exists for — small
// drain batches, plan-cache hits, persistent simulator state — where the
// per-query cost is an order of magnitude lower.
//
// --out updates the "service_throughput" entry (and the per-shard
// "service_shard_sweep" rows) inside BENCH_sim.json's results array;
// --smoke re-measures the shards=1 point and fails when throughput drops
// below half the checked-in baseline (wired up as `perf_smoke_service`).
//
// --scale measures the sparse ingestion path instead: whole synthetic
// coflow traces (bench_sim_scale's scale generator) submitted as
// SparseCoflowSpec flow lists and drained as one epoch per point — the
// 10k-rack regime where a dense submission would be ~800 MB per coflow.
// Each "service_scale" row records wall time and the process peak RSS, the
// evidence that nothing on the path allocates O(racks²). --smoke-scale
// gates the 2,500-rack point against the checked-in row (completion, wall
// within 2x, RSS within 2x past an absolute floor); wired up as
// `perf_smoke_service_scale`.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "data/workload.hpp"
#include "net/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

constexpr std::size_t kNodes = 16;
constexpr std::size_t kWorkingSet = 32;

// The same star-schema stream as bench_online_coflows: the first query is
// the big fact join, the rest shrink.
std::vector<std::shared_ptr<const ccf::data::Workload>> make_workloads(
    std::uint64_t seed) {
  std::vector<std::shared_ptr<const ccf::data::Workload>> workloads;
  workloads.reserve(kWorkingSet);
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    ccf::data::WorkloadSpec spec =
        ccf::data::WorkloadSpec::paper_default(kNodes);
    const double shrink = i == 0 ? 1.0 : 0.25 / static_cast<double>(i);
    spec.customer_bytes *= 0.1 * shrink;
    spec.orders_bytes *= 0.1 * shrink;
    spec.seed = seed + i;
    workloads.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  return workloads;
}

struct LoadResult {
  std::size_t shards = 0;
  std::size_t queries = 0;
  double elapsed_s = 0.0;
  double queries_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t epochs = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

LoadResult run_load(std::size_t shards, std::size_t total_queries,
                    std::size_t max_batch, std::uint64_t seed) {
  const auto workloads = make_workloads(seed);

  ccf::core::ServiceOptions options;
  options.engine.nodes = kNodes;
  options.engine.allocator = "madd";
  options.shards = shards;
  options.max_batch = max_batch;
  options.max_wait = std::chrono::microseconds(200);
  options.queue_capacity = 1024;
  for (std::size_t t = 0; t < shards; ++t) {
    ccf::core::TenantSpec tenant;
    // Appended: GCC 12 reports a false -Wrestrict on "t" + std::to_string(t).
    tenant.name = std::string("t").append(std::to_string(t));
    options.tenants.push_back(std::move(tenant));  // round-robin onto shard t
  }

  // Submit-to-drain latency, recorded on the epoch callback (driver
  // threads). One slot vector per shard: one driver each, so no locking.
  std::vector<std::vector<double>> latency_ms(shards);
  for (auto& v : latency_ms) v.reserve(total_queries / shards + max_batch);
  const auto on_epoch = [&](const ccf::core::ShardEpoch& epoch) {
    const auto now = std::chrono::steady_clock::now();
    for (const ccf::core::ServiceQuery& q : epoch.queries) {
      latency_ms[epoch.shard].push_back(
          std::chrono::duration<double, std::milli>(now - q.submitted)
              .count());
    }
  };

  ccf::core::Service service(options, on_epoch);
  const auto start = std::chrono::steady_clock::now();
  std::size_t submitted = 0;
  while (submitted < total_queries) {
    ccf::core::QuerySpec spec("q", workloads[submitted % kWorkingSet], "ccf");
    const ccf::core::SubmitResult r =
        service.submit(submitted % shards, std::move(spec));
    if (r.accepted()) {
      ++submitted;
    } else if (r.status == ccf::core::SubmitStatus::kQueueFull) {
      std::this_thread::yield();  // backpressure: let the drivers drain
    } else {
      std::cerr << "service-load: unexpected submit status\n";
      std::exit(1);
    }
  }
  service.flush();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const ccf::core::ServiceStats stats = service.stats();
  service.stop();

  if (stats.completed != total_queries) {
    std::cerr << "service-load: completed " << stats.completed << " of "
              << total_queries << "\n";
    std::exit(1);
  }

  std::vector<double> all;
  all.reserve(total_queries);
  for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  LoadResult result;
  result.shards = shards;
  result.queries = total_queries;
  result.elapsed_s = elapsed.count();
  result.queries_per_sec =
      static_cast<double>(total_queries) / elapsed.count();
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  result.epochs = stats.epochs;
  return result;
}

// --- extreme-scale sparse epochs (the 10k-rack service path) ---------------

/// Process peak RSS in MB (ru_maxrss is KB on Linux). Monotone across the
/// whole process, so scale points must run in ascending footprint order.
double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleResult {
  std::size_t racks = 0;
  std::size_t coflows = 0;
  std::size_t flows = 0;  ///< flow records across the trace
  double wall_s = 0.0;    ///< submit-to-flush, epoch simulation included
  std::uint64_t epochs = 0;
  double peak_rss_mb = 0.0;
};

ScaleResult run_scale(std::size_t racks, std::size_t coflows,
                      std::uint64_t seed) {
  // The same trace bench_sim_scale's --scale points simulate directly on a
  // Simulator; here it flows through Service submit -> batch -> Engine.
  ccf::net::SyntheticTraceOptions trace_options;
  trace_options.racks = racks;
  trace_options.coflows = coflows;
  trace_options.duration_seconds = 6e-3 * static_cast<double>(coflows);
  ccf::util::Pcg32 rng(ccf::util::derive_seed(seed, 83), 83);
  std::vector<ccf::net::SparseCoflowSpec> specs =
      ccf::net::to_sparse_coflow_specs(
          ccf::net::generate_synthetic_trace(trace_options, rng));

  ccf::core::ServiceOptions options;
  options.engine.nodes = racks;
  options.engine.allocator = "madd";
  options.engine.sim.engine = ccf::net::SimEngine::kIncremental;
  options.shards = 1;
  // One epoch per point: the whole trace drains as a single 10k-coflow
  // batch, so the simulated timeline matches bench_sim_scale's scale rows.
  options.max_batch = coflows;
  options.max_wait = std::chrono::microseconds(10'000'000);
  options.queue_capacity = coflows;

  ScaleResult result;
  result.racks = racks;
  result.coflows = coflows;
  for (const auto& spec : specs) result.flows += spec.flows.size();

  ccf::core::Service service(options);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < specs.size();) {
    // QuerySpec carries the flow list by shared_ptr, so a queue-full retry
    // re-submits the same spec without copying it.
    ccf::core::QuerySpec spec;
    spec.sparse = std::make_shared<const ccf::net::SparseCoflowSpec>(
        std::move(specs[i]));
    ccf::core::SubmitResult r;
    do {
      r = service.submit(0, spec);
      if (r.status == ccf::core::SubmitStatus::kQueueFull) {
        std::this_thread::yield();
      }
    } while (r.status == ccf::core::SubmitStatus::kQueueFull);
    if (!r.accepted()) {
      std::cerr << "service-scale: unexpected submit status\n";
      std::exit(1);
    }
    ++i;
  }
  service.flush();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  const ccf::core::ServiceStats stats = service.stats();
  service.stop();
  if (stats.completed != coflows) {
    std::cerr << "service-scale: completed " << stats.completed << " of "
              << coflows << "\n";
    std::exit(1);
  }
  result.epochs = stats.epochs;
  result.peak_rss_mb = peak_rss_mb();
  return result;
}

std::string scale_json(const ScaleResult& r) {
  std::ostringstream line;
  line << "{\"bench\": \"service_scale\", \"racks\": " << r.racks
       << ", \"coflows\": " << r.coflows << ", \"flows\": " << r.flows
       << ", \"allocator\": \"madd\", \"epochs\": " << r.epochs
       << ", \"wall_s\": " << r.wall_s
       << ", \"peak_rss_mb\": " << r.peak_rss_mb << "}";
  return line.str();
}

void print_scale_table(const std::vector<ScaleResult>& rows) {
  ccf::util::Table t(
      {"racks", "coflows", "flows", "epochs", "wall s", "peak RSS MB"});
  for (const ScaleResult& r : rows) {
    std::ostringstream wall, rss;
    wall.precision(2);
    wall << std::fixed << r.wall_s;
    rss.precision(1);
    rss << std::fixed << r.peak_rss_mb;
    t.add_row({std::to_string(r.racks), std::to_string(r.coflows),
               std::to_string(r.flows), std::to_string(r.epochs), wall.str(),
               rss.str()});
  }
  t.print(std::cout);
}

std::string sweep_json(const LoadResult& r) {
  std::ostringstream line;
  line << "{\"bench\": \"service_shard_sweep\", \"shards\": " << r.shards
       << ", \"queries\": " << r.queries
       << ", \"queries_per_sec\": " << r.queries_per_sec
       << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms << "}";
  return line.str();
}

std::string throughput_json(const LoadResult& r, std::size_t max_batch) {
  std::ostringstream line;
  line << "{\"bench\": \"service_throughput\", \"queries\": " << r.queries
       << ", \"nodes\": " << kNodes << ", \"shards\": " << r.shards
       << ", \"max_batch\": " << max_batch
       << ", \"scheduler\": \"ccf\", \"queries_per_sec\": "
       << r.queries_per_sec << ", \"p50_ms\": " << r.p50_ms
       << ", \"p99_ms\": " << r.p99_ms << "}";
  return line.str();
}

double json_number(const std::string& line, const std::string& key) {
  const auto p = line.find("\"" + key + "\"");
  if (p == std::string::npos) return std::nan("");
  try {
    return std::stod(line.substr(line.find(':', p) + 1));
  } catch (...) {
    return std::nan("");
  }
}

double load_baseline_qps(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"service_throughput\"") == std::string::npos) continue;
    return json_number(line, "queries_per_sec");
  }
  return std::nan("");
}

struct ScaleBaseline {
  double wall_s = std::nan("");
  double peak_rss_mb = std::nan("");
};

ScaleBaseline load_baseline_scale(const std::string& path, std::size_t racks,
                                  std::size_t coflows) {
  ScaleBaseline base;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"service_scale\"") == std::string::npos ||
        line.find("\"racks\": " + std::to_string(racks)) ==
            std::string::npos ||
        line.find("\"coflows\": " + std::to_string(coflows)) ==
            std::string::npos) {
      continue;
    }
    base.wall_s = json_number(line, "wall_s");
    base.peak_rss_mb = json_number(line, "peak_rss_mb");
  }
  return base;
}

/// Replace the entries whose bench keys appear in `strip` inside the
/// baseline's results array.
int update_baseline(const std::string& path,
                    const std::vector<std::string>& entries,
                    const std::vector<std::string>& strip) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "service-load: cannot read " << path << "\n";
    return 1;
  }
  std::vector<std::string> lines;
  bool inserted = false;
  for (std::string line; std::getline(in, line);) {
    bool stripped = false;
    for (const std::string& key : strip) {
      if (line.find("\"" + key + "\"") != std::string::npos) {
        stripped = true;
        break;
      }
    }
    if (stripped) continue;
    lines.push_back(line);
    if (!inserted && line.find("\"results\"") != std::string::npos) {
      for (const std::string& entry : entries) {
        lines.push_back("    " + entry + ",");
      }
      inserted = true;
    }
  }
  in.close();
  if (!inserted) {
    std::cerr << "service-load: no results array in " << path << "\n";
    return 1;
  }
  std::ofstream out(path);
  for (const auto& line : lines) out << line << "\n";
  std::cout << "updated service entries in " << path << "\n";
  return 0;
}

void print_table(const std::vector<LoadResult>& rows) {
  ccf::util::Table t(
      {"shards", "queries", "queries/sec", "p50 ms", "p99 ms", "epochs"});
  for (const LoadResult& r : rows) {
    std::ostringstream qps, p50, p99;
    qps.precision(0);
    qps << std::fixed << r.queries_per_sec;
    p50.precision(2);
    p50 << std::fixed << r.p50_ms;
    p99.precision(2);
    p99 << std::fixed << r.p99_ms;
    t.add_row({std::to_string(r.shards), std::to_string(r.queries),
               qps.str(), p50.str(), p99.str(), std::to_string(r.epochs)});
  }
  t.print(std::cout);
}

/// Gates the 2,500-rack x 10,000-coflow sparse point: the epoch must drain
/// completely through the Service (run_scale exits non-zero otherwise), wall
/// time must stay within 2x of the checked-in row past a 2 s noise floor,
/// and peak RSS must stay within 2x past a 1 GB absolute floor — the
/// regression tripwire for anything O(racks²) sneaking back onto the path.
int run_smoke_scale(const std::string& baseline_path, std::uint64_t seed) {
  constexpr std::size_t kRacks = 2500, kCoflows = 10'000;
  const ScaleResult r = run_scale(kRacks, kCoflows, seed);
  print_scale_table({r});
  const ScaleBaseline base =
      load_baseline_scale(baseline_path, kRacks, kCoflows);
  bool ok = true;
  if (!std::isfinite(base.wall_s)) {
    std::cout << "service-scale smoke: no baseline row (not fatal)\n";
  } else {
    if (r.wall_s > 2.0 * base.wall_s && r.wall_s - base.wall_s > 2.0) {
      std::cerr << "service-scale smoke: wall " << r.wall_s
                << " s regressed >2x vs checked-in " << base.wall_s << " s\n";
      ok = false;
    }
    if (std::isfinite(base.peak_rss_mb) &&
        r.peak_rss_mb > 2.0 * base.peak_rss_mb && r.peak_rss_mb > 1024.0) {
      std::cerr << "service-scale smoke: peak RSS " << r.peak_rss_mb
                << " MB regressed >2x vs checked-in " << base.peak_rss_mb
                << " MB\n";
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "service-scale smoke FAILED vs " << baseline_path << "\n";
    return 1;
  }
  std::cout << "service-scale smoke passed (" << kCoflows
            << " sparse coflows on " << kRacks << " racks, one epoch)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ccf::util::ArgParser args("bench_service_load",
                            "Sustained open-arrival load on core::Service");
  args.add_flag("queries", "100000", "total queries to push through");
  args.add_flag("batch", "2", "Service max_batch (drain batch size)");
  args.add_flag("seed", "300", "workload rng seed");
  args.add_flag("sweep", "false", "also measure shards = 2 and 4");
  args.add_flag("smoke", "false",
                "regression check of shards=1 against --baseline");
  args.add_flag("scale", "false",
                "measure the sparse 2.5k- and 10k-rack epoch points");
  args.add_flag("smoke-scale", "false",
                "regression check of the 2.5k-rack sparse point");
  args.add_flag("baseline", "BENCH_sim.json",
                "baseline JSON for --smoke comparisons");
  args.add_flag("out", "", "update this baseline JSON");
  args.parse(argc, argv);

  const auto total = static_cast<std::size_t>(args.get_int("queries"));
  const auto batch = static_cast<std::size_t>(args.get_int("batch"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  if (args.provided("smoke-scale")) {
    return run_smoke_scale(args.get("baseline"), seed);
  }

  if (args.provided("scale")) {
    // Ascending footprint order: peak RSS is process-monotone, so the 10k
    // point must come last for the 2.5k row to be meaningful.
    std::vector<ScaleResult> rows;
    rows.push_back(run_scale(2500, 10'000, seed));
    rows.push_back(run_scale(10'000, 10'000, seed));
    print_scale_table(rows);
    std::vector<std::string> entries;
    for (const ScaleResult& r : rows) entries.push_back(scale_json(r));
    if (!args.get("out").empty()) {
      return update_baseline(args.get("out"), entries, {"service_scale"});
    }
    std::cout << "\n";
    for (const std::string& entry : entries) std::cout << entry << "\n";
    return 0;
  }

  if (args.provided("smoke")) {
    // A shorter run keeps the gate fast; throughput is rate, not volume, so
    // the comparison is still apples-to-apples.
    const LoadResult r = run_load(1, std::min<std::size_t>(total, 40000),
                                  batch, seed);
    print_table({r});
    const double base = load_baseline_qps(args.get("baseline"));
    if (!std::isfinite(base)) {
      std::cerr << "service-load smoke: no service_throughput baseline in "
                << args.get("baseline") << "\n";
      return 1;
    }
    if (r.queries_per_sec < 0.5 * base) {
      std::cerr << "service-load smoke FAILED: " << r.queries_per_sec
                << " queries/sec vs baseline " << base << " (<0.5x)\n";
      return 1;
    }
    std::cout << "service-load smoke passed (baseline " << base
              << " queries/sec)\n";
    return 0;
  }

  std::vector<LoadResult> rows;
  rows.push_back(run_load(1, total, batch, seed));
  if (args.provided("sweep") || !args.get("out").empty()) {
    rows.push_back(run_load(2, total, batch, seed));
    rows.push_back(run_load(4, total, batch, seed));
  }
  print_table(rows);

  std::vector<std::string> entries;
  entries.push_back(throughput_json(rows.front(), batch));
  for (const LoadResult& r : rows) entries.push_back(sweep_json(r));
  if (!args.get("out").empty()) {
    return update_baseline(args.get("out"), entries,
                           {"service_throughput", "service_shard_sweep"});
  }
  std::cout << "\n";
  for (const std::string& entry : entries) std::cout << entry << "\n";
  return 0;
}
