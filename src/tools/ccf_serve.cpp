// ccf_serve — stand up the always-on scheduling service (core::Service) and
// drive it with a synthetic open-arrival query stream.
//
//   ccf_serve [--nodes 16] [--allocator madd] [--scheduler ccf]
//             [--shards 1] [--tenants 0] [--rate-qps 0] [--burst 64]
//             [--batch 2] [--wait-us 200] [--queue 1024]
//             [--queries 50000] [--target-qps 0]
//             [--working-set 32] [--seed 300] [--sparse]
//
// The stream is the engine-throughput working set: --working-set prepared
// star-schema joins cycling round-robin over the tenants (one tenant per
// shard by default), so steady state exercises the plan cache and the
// persistent per-shard simulators — the service's always-on fast path.
// --target-qps paces submissions as an open-loop arrival process (0 = push
// as fast as admission allows); --rate-qps arms each tenant's token bucket,
// so a paced run over the limit shows kThrottled rejections at the door.
// --sparse switches the stream to synthetic sparse coflows (net/trace.hpp's
// heavy-tailed generator over --nodes racks) submitted as SparseCoflowSpec
// flow lists — the n²-free ingestion path, which is what lets a 10k-rack
// epoch run behind the service: try --sparse --nodes 10000 --queries 10000.
// Prints a per-tenant admission table and the service summary (epochs, failed
// epochs, mean batch size, sustained queries/sec, submit-to-drain latency
// percentiles).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/service.hpp"
#include "data/workload.hpp"
#include "net/trace.hpp"
#include "tools/common.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::shared_ptr<const ccf::data::Workload>> make_workloads(
    std::size_t nodes, std::size_t working_set, std::uint64_t seed) {
  std::vector<std::shared_ptr<const ccf::data::Workload>> workloads;
  workloads.reserve(working_set);
  for (std::size_t i = 0; i < working_set; ++i) {
    ccf::data::WorkloadSpec spec =
        ccf::data::WorkloadSpec::paper_default(nodes);
    const double shrink = i == 0 ? 1.0 : 0.25 / static_cast<double>(i);
    spec.customer_bytes *= 0.1 * shrink;
    spec.orders_bytes *= 0.1 * shrink;
    spec.seed = seed + i;
    workloads.push_back(std::make_shared<const ccf::data::Workload>(
        ccf::data::generate_workload(spec)));
  }
  return workloads;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string fixed(double value, int precision) {
  std::ostringstream out;
  out.precision(precision);
  out << std::fixed << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  return ccf::tools::run_tool("ccf_serve", [&] {
    ccf::util::ArgParser args("ccf_serve",
                              "Always-on scheduling service driver");
    args.add_flag("nodes", "16", "fabric width per shard");
    args.add_flag("allocator", "madd",
                  ccf::core::registry::allocator_name_list());
    args.add_flag("scheduler", "ccf",
                  ccf::core::registry::scheduler_name_list());
    args.add_flag("shards", "1", "engine shards (driver threads)");
    args.add_flag("tenants", "0", "tenant count (0 = one per shard)");
    args.add_flag("rate-qps", "0",
                  "per-tenant token-bucket rate (0 = unlimited)");
    args.add_flag("burst", "64", "per-tenant token-bucket depth");
    args.add_flag("batch", "2", "drain batch size (Service max_batch)");
    args.add_flag("wait-us", "200",
                  "batch deadline in microseconds once a shard falls behind "
                  "(a shard that keeps up drains at once)");
    args.add_flag("queue", "1024", "per-shard submission ring capacity");
    args.add_flag("queries", "50000", "total queries to submit");
    args.add_flag("target-qps", "0",
                  "open-loop arrival rate (0 = as fast as possible)");
    args.add_flag("working-set", "32", "distinct prepared workloads");
    args.add_flag("seed", "300", "workload rng seed");
    args.add_flag("sparse", "false",
                  "submit synthetic sparse coflows (n²-free ingestion) "
                  "instead of prepared workloads");
    args.parse(argc, argv);

    const auto nodes = static_cast<std::size_t>(args.get_int("nodes"));
    const auto shards = static_cast<std::size_t>(args.get_int("shards"));
    auto tenant_count = static_cast<std::size_t>(args.get_int("tenants"));
    if (tenant_count == 0) tenant_count = shards;
    const auto total = static_cast<std::size_t>(args.get_int("queries"));
    const auto working_set =
        static_cast<std::size_t>(args.get_int("working-set"));
    const double target_qps = args.get_double("target-qps");
    const std::string scheduler = args.get("scheduler");
    const bool sparse = args.get_bool("sparse");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

    // --sparse pre-generates the whole stream as flow lists; nothing on that
    // path (generation, submission, Engine epoch) allocates O(nodes²), so
    // the same driver scales to 10k-rack fabrics.
    std::vector<std::shared_ptr<const ccf::data::Workload>> workloads;
    std::vector<ccf::net::SparseCoflowSpec> sparse_specs;
    if (sparse) {
      ccf::net::SyntheticTraceOptions trace_options;
      trace_options.racks = nodes;
      trace_options.coflows = total;
      trace_options.duration_seconds = 6e-3 * static_cast<double>(total);
      ccf::util::Pcg32 rng(ccf::util::derive_seed(seed, 83), 83);
      sparse_specs = ccf::net::to_sparse_coflow_specs(
          ccf::net::generate_synthetic_trace(trace_options, rng));
    } else {
      workloads = make_workloads(nodes, working_set, seed);
    }

    ccf::core::ServiceOptions options;
    options.engine.nodes = nodes;
    options.engine.allocator = args.get("allocator");
    options.shards = shards;
    options.max_batch = static_cast<std::size_t>(args.get_int("batch"));
    options.max_wait = std::chrono::microseconds(args.get_int("wait-us"));
    options.queue_capacity = static_cast<std::size_t>(args.get_int("queue"));
    for (std::size_t t = 0; t < tenant_count; ++t) {
      ccf::core::TenantSpec tenant;
      tenant.name = "t";
      tenant.name += std::to_string(t);
      tenant.rate_qps = args.get_double("rate-qps");
      tenant.burst = args.get_double("burst");
      options.tenants.push_back(std::move(tenant));
    }

    // Submit-to-drain latency, one slot vector per shard (one driver thread
    // each, so the callback needs no locking).
    std::vector<std::vector<double>> latency_ms(shards);
    for (auto& v : latency_ms) {
      v.reserve(total / shards + options.max_batch);
    }
    const auto on_epoch = [&](const ccf::core::ShardEpoch& epoch) {
      const auto now = std::chrono::steady_clock::now();
      for (const ccf::core::ServiceQuery& q : epoch.queries) {
        latency_ms[epoch.shard].push_back(
            std::chrono::duration<double, std::milli>(now - q.submitted)
                .count());
      }
    };

    ccf::core::Service service(options, on_epoch);

    // One open-loop client: round-robin tenants, paced by --target-qps.
    // Throttled/queue-full submissions are dropped (counted), matching an
    // open arrival process — the stream does not slow down for rejections.
    struct TenantCounters {
      std::uint64_t accepted = 0;
      std::uint64_t throttled = 0;
      std::uint64_t queue_full = 0;
    };
    std::vector<TenantCounters> per_tenant(tenant_count);
    const auto start = std::chrono::steady_clock::now();
    const std::chrono::duration<double> spacing(
        target_qps > 0.0 ? 1.0 / target_qps : 0.0);
    auto next_arrival = start;
    for (std::size_t i = 0; i < total; ++i) {
      if (target_qps > 0.0) {
        while (std::chrono::steady_clock::now() < next_arrival) {
          std::this_thread::yield();
        }
        next_arrival += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(spacing);
      }
      const std::size_t tenant = i % tenant_count;
      ccf::core::SubmitResult r;
      if (sparse) {
        r = service.submit(tenant, std::move(sparse_specs[i]));
      } else {
        std::string name = "q";
        name += std::to_string(i);
        ccf::core::QuerySpec spec(std::move(name), workloads[i % working_set],
                                  scheduler);
        r = service.submit(tenant, std::move(spec));
      }
      switch (r.status) {
        case ccf::core::SubmitStatus::kAccepted:
          ++per_tenant[tenant].accepted;
          break;
        case ccf::core::SubmitStatus::kThrottled:
          ++per_tenant[tenant].throttled;
          break;
        case ccf::core::SubmitStatus::kQueueFull:
          ++per_tenant[tenant].queue_full;
          if (target_qps == 0.0) std::this_thread::yield();  // backpressure
          break;
        default:
          std::cerr << "ccf_serve: unexpected submit status\n";
          return 1;
      }
    }
    service.flush();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const ccf::core::ServiceStats stats = service.stats();

    ccf::util::Table tenants_table(
        {"tenant", "shard", "accepted", "throttled", "queue-full"});
    for (std::size_t t = 0; t < tenant_count; ++t) {
      tenants_table.add_row({options.tenants[t].name,
                             std::to_string(service.tenant_shard(t)),
                             std::to_string(per_tenant[t].accepted),
                             std::to_string(per_tenant[t].throttled),
                             std::to_string(per_tenant[t].queue_full)});
    }
    service.stop();
    tenants_table.print(std::cout);

    std::vector<double> all;
    all.reserve(stats.completed);
    for (const auto& v : latency_ms) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());

    ccf::util::Table summary({"metric", "value"});
    summary.add_row({"shards", std::to_string(shards)});
    summary.add_row({"submitted", std::to_string(stats.submitted)});
    summary.add_row({"accepted", std::to_string(stats.accepted)});
    summary.add_row({"completed", std::to_string(stats.completed)});
    summary.add_row({"epochs", std::to_string(stats.epochs)});
    summary.add_row({"failed epochs", std::to_string(stats.failed_epochs)});
    summary.add_row(
        {"batch mean",
         fixed(stats.epochs == 0 ? 0.0
                                 : static_cast<double>(stats.completed) /
                                       static_cast<double>(stats.epochs),
               2)});
    summary.add_row({"elapsed s", fixed(elapsed.count(), 3)});
    summary.add_row(
        {"queries/sec",
         fixed(static_cast<double>(stats.completed) / elapsed.count(), 0)});
    summary.add_row({"p50 ms", fixed(percentile(all, 0.50), 3)});
    summary.add_row({"p99 ms", fixed(percentile(all, 0.99), 3)});
    summary.add_row({"max ms", fixed(all.empty() ? 0.0 : all.back(), 3)});
    summary.print(std::cout);
    return 0;
  });
}
