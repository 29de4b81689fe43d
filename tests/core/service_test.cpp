// Pins the Service's contract (core/service.hpp):
//
//  1. Replay determinism — every ShardEpoch the service delivers, replayed
//     through a fresh serial Engine, reproduces the epoch's report
//     bit-for-bit. Batching and routing never change the numbers.
//  2. Exactly-once delivery — under concurrent submitters, every accepted
//     ticket appears in exactly one epoch, on the tenant's assigned shard.
//  3. Admission control — token buckets throttle at the door; weights shape
//     the batch order via smooth WRR; invalid specs are status codes, not
//     driver-thread exceptions.
//  4. Group commit — a shard that keeps up dispatches a lone submission at
//     once instead of waiting out max_wait, and a burst into a fresh shard
//     still fills one batch.
//  5. Failure isolation — an epoch whose drain or callback throws is
//     delivered or counted as failed, its tickets complete, and the shard's
//     later epochs replay bit-identically.
//
// The suite carries the tsan_smoke label: the sanitizer build races real
// client threads against the shard drivers.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "data/workload.hpp"
#include "testing/names.hpp"

namespace ccf::core {
namespace {

data::Workload tiny_workload(std::uint64_t seed, double scale = 1.0) {
  data::WorkloadSpec spec;
  spec.nodes = 4;
  spec.partitions = 8;
  spec.customer_bytes = 4e6 * scale;
  spec.orders_bytes = 4e7 * scale;
  spec.zipf_theta = 0.8;
  spec.skew = 0.3;
  spec.seed = seed;
  return data::generate_workload(spec);
}

std::vector<std::shared_ptr<const data::Workload>> prepared_set(
    std::size_t count) {
  std::vector<std::shared_ptr<const data::Workload>> set;
  for (std::size_t i = 0; i < count; ++i) {
    set.push_back(
        std::make_shared<const data::Workload>(tiny_workload(700 + i)));
  }
  return set;
}

/// Thread-safe epoch recorder (callbacks arrive on every shard's driver).
struct EpochLog {
  std::mutex mutex;
  std::vector<ShardEpoch> epochs;

  Service::EpochCallback callback() {
    return [this](const ShardEpoch& epoch) {
      const std::scoped_lock lock(mutex);
      epochs.push_back(epoch);
    };
  }
};

/// Bit-for-bit on everything except wall-clock timings (the service engine's
/// plan cache reports zero placement time on hits; a fresh replay engine
/// pays it for real).
void expect_identical_numbers(const EngineReport& a, const EngineReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].scheduler, b.queries[q].scheduler) << q;
    EXPECT_EQ(a.queries[q].traffic_bytes, b.queries[q].traffic_bytes) << q;
    EXPECT_EQ(a.queries[q].makespan_bytes, b.queries[q].makespan_bytes) << q;
    EXPECT_EQ(a.queries[q].gamma_seconds, b.queries[q].gamma_seconds) << q;
    EXPECT_EQ(a.queries[q].cct_seconds, b.queries[q].cct_seconds) << q;
    EXPECT_EQ(a.queries[q].flow_count, b.queries[q].flow_count) << q;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_traffic_bytes, b.total_traffic_bytes);
  EXPECT_EQ(a.sim.events, b.sim.events);
  EXPECT_EQ(a.sim.total_bytes, b.sim.total_bytes);
  ASSERT_EQ(a.sim.coflows.size(), b.sim.coflows.size());
  for (std::size_t c = 0; c < a.sim.coflows.size(); ++c) {
    EXPECT_EQ(a.sim.coflows[c].name, b.sim.coflows[c].name) << c;
    EXPECT_EQ(a.sim.coflows[c].completion, b.sim.coflows[c].completion) << c;
  }
}

ServiceOptions base_options(std::size_t shards, std::size_t tenants) {
  ServiceOptions options;
  options.engine.nodes = 4;
  options.shards = shards;
  options.max_batch = 2;
  options.max_wait = std::chrono::microseconds(200);
  for (std::size_t t = 0; t < tenants; ++t) {
    TenantSpec tenant;
    tenant.name = testing::numbered("t", t);
    options.tenants.push_back(std::move(tenant));
  }
  return options;
}

// ---------------------------------------------------------------------------

TEST(Service, ReplaysBitIdenticallyUnderConcurrentSubmitters) {
  EpochLog log;
  const ServiceOptions options = base_options(2, 4);
  const auto workloads = prepared_set(4);
  constexpr std::size_t kPerThread = 24;

  std::vector<std::uint64_t> tickets[4];
  {
    Service service(options, log.callback());
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          QuerySpec spec("t" + std::to_string(t) + "_q" + std::to_string(i),
                         workloads[(t + i) % workloads.size()],
                         i % 2 == 0 ? "ccf" : "hash");
          const SubmitResult r = service.submit(t, std::move(spec));
          ASSERT_TRUE(r.accepted());
          tickets[t].push_back(r.ticket);
        }
      });
    }
    for (std::thread& c : clients) c.join();
    service.flush();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 4 * kPerThread);
    EXPECT_EQ(stats.completed, 4 * kPerThread);
    EXPECT_EQ(stats.submitted, 4 * kPerThread);
    EXPECT_GT(stats.epochs, 0u);
    service.stop();
  }

  // Exactly-once: the union of all epochs is exactly the accepted tickets,
  // each on its tenant's shard, and a tenant's own submissions in FIFO order.
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> per_tenant_order[4];
  std::size_t total = 0;
  for (const ShardEpoch& epoch : log.epochs) {
    ASSERT_EQ(epoch.queries.size(), epoch.report.queries.size());
    for (const ServiceQuery& q : epoch.queries) {
      EXPECT_TRUE(seen.insert(q.ticket).second) << "duplicate " << q.ticket;
      EXPECT_EQ(q.tenant % 2, epoch.shard);  // round-robin tenant -> shard
      per_tenant_order[q.tenant].push_back(q.ticket);
      ++total;
    }
  }
  EXPECT_EQ(total, 4 * kPerThread);
  // Epochs interleave across shards in log order; sort by per-shard sequence
  // to recover each tenant's delivery order.
  std::vector<const ShardEpoch*> ordered;
  for (const ShardEpoch& e : log.epochs) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardEpoch* a, const ShardEpoch* b) {
              return a->shard != b->shard ? a->shard < b->shard
                                          : a->seq < b->seq;
            });
  std::vector<std::uint64_t> delivery[4];
  for (const ShardEpoch* e : ordered) {
    for (const ServiceQuery& q : e->queries) delivery[q.tenant].push_back(q.ticket);
  }
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(delivery[t], tickets[t]) << "tenant " << t << " reordered";
  }

  // Replay determinism: each epoch through a fresh serial Engine.
  for (const ShardEpoch& epoch : log.epochs) {
    Engine fresh(options.engine);
    for (const ServiceQuery& q : epoch.queries) fresh.submit(q.spec);
    expect_identical_numbers(epoch.report, fresh.drain());
  }
}

TEST(Service, SmoothWrrAlternatesEqualWeightTenants) {
  EpochLog log;
  ServiceOptions options = base_options(1, 2);
  options.max_batch = 4;
  options.max_wait = std::chrono::milliseconds(100);  // let the batch fill
  const auto workloads = prepared_set(1);

  Service service(options, log.callback());
  // 2 + 2 submissions land well inside the 100 ms accumulation window, so
  // one epoch drains all four; smooth WRR with equal weights alternates.
  ASSERT_TRUE(service.submit(0, QuerySpec("a0", workloads[0])).accepted());
  ASSERT_TRUE(service.submit(0, QuerySpec("a1", workloads[0])).accepted());
  ASSERT_TRUE(service.submit(1, QuerySpec("b0", workloads[0])).accepted());
  ASSERT_TRUE(service.submit(1, QuerySpec("b1", workloads[0])).accepted());
  service.flush();
  service.stop();

  std::vector<std::size_t> order;
  for (const ShardEpoch& e : log.epochs) {
    for (const ServiceQuery& q : e.queries) order.push_back(q.tenant);
  }
  ASSERT_EQ(order.size(), 4u);
  // If all four were staged together the order is exactly 0,1,0,1; if the
  // driver raced ahead the per-tenant FIFO still guarantees no tenant is
  // served twice in a row more often than the other has backlog.
  EXPECT_EQ(std::count(order.begin(), order.end(), 0u), 2);
  EXPECT_EQ(std::count(order.begin(), order.end(), 1u), 2);
}

TEST(Service, TokenBucketThrottlesAtTheDoor) {
  ServiceOptions options = base_options(1, 1);
  options.tenants[0].rate_qps = 1e-3;  // refills one token every ~17 min
  options.tenants[0].burst = 2.0;
  const auto workloads = prepared_set(1);

  Service service(options);
  EXPECT_TRUE(service.submit(0, QuerySpec("q0", workloads[0])).accepted());
  EXPECT_TRUE(service.submit(0, QuerySpec("q1", workloads[0])).accepted());
  const SubmitResult third = service.submit(0, QuerySpec("q2", workloads[0]));
  EXPECT_EQ(third.status, SubmitStatus::kThrottled);
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.throttled, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(Service, RejectsInvalidSubmissionsAsStatusCodes) {
  const ServiceOptions options = base_options(2, 3);
  const auto workloads = prepared_set(1);
  Service service(options);

  EXPECT_EQ(service.submit(99, QuerySpec("q", workloads[0])).status,
            SubmitStatus::kUnknownTenant);
  EXPECT_EQ(service.submit(0, QuerySpec{}).status, SubmitStatus::kInvalid);
  EXPECT_EQ(service.submit(0, QuerySpec("q", workloads[0], "bogus")).status,
            SubmitStatus::kInvalid);
  EXPECT_EQ(
      service.submit(0, QuerySpec("q", workloads[0], "ccf", -1.0)).status,
      SubmitStatus::kInvalid);
  QuerySpec wrong_width("q", tiny_workload(1));  // 4-node workload...
  Service wide([] {
    ServiceOptions o = base_options(1, 1);
    o.engine.nodes = 8;  // ...against an 8-node service
    return o;
  }());
  EXPECT_EQ(wide.submit(0, std::move(wrong_width)).status,
            SubmitStatus::kInvalid);

  // Tenant -> shard round robin, pinning validated at construction.
  EXPECT_EQ(service.tenant_shard(0), 0u);
  EXPECT_EQ(service.tenant_shard(1), 1u);
  EXPECT_EQ(service.tenant_shard(2), 0u);
  ServiceOptions bad = base_options(2, 1);
  bad.tenants[0].shard = 7;
  EXPECT_THROW(Service{std::move(bad)}, std::invalid_argument);

  service.stop();
  EXPECT_EQ(service.submit(0, QuerySpec("q", workloads[0])).status,
            SubmitStatus::kStopped);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(Service, ShardEnginesReusePlansAcrossEpochs) {
  EpochLog log;
  ServiceOptions options = base_options(1, 1);
  options.max_batch = 1;  // every submission is its own epoch
  const auto workloads = prepared_set(2);

  Service service(options, log.callback());
  for (int round = 0; round < 5; ++round) {
    for (const auto& w : workloads) {
      ASSERT_TRUE(service.submit(0, QuerySpec("q", w)).accepted());
      service.flush();  // serialize: one epoch per submission
    }
  }
  service.stop();

  const EngineStats engine_stats = service.shard_engine(0).stats();
  EXPECT_EQ(engine_stats.queries, 10u);
  EXPECT_EQ(engine_stats.plan_misses, 2u);  // one cold placement per workload
  EXPECT_EQ(engine_stats.plan_hits, 8u);    // everything after is a hit

  // And the cached epochs still replay bit-identically.
  for (const ShardEpoch& epoch : log.epochs) {
    Engine fresh(options.engine);
    for (const ServiceQuery& q : epoch.queries) fresh.submit(q.spec);
    expect_identical_numbers(epoch.report, fresh.drain());
  }
}

TEST(Service, IdleShardDispatchesWithoutWaitingOutMaxWait) {
  ServiceOptions options = base_options(1, 1);
  options.max_batch = 2;
  options.max_wait = std::chrono::seconds(2);
  const auto workloads = prepared_set(1);
  Service service(options);

  // A warm-up burst fills whole batches, so nothing waits on the deadline.
  // It gives the driver its drain and arrival-gap samples, and enough
  // epochs that the first one's cold placement (about 100x a hit's drain
  // under ThreadSanitizer) has decayed out of the drain average.
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(service.submit(0, QuerySpec("warm", workloads[0])).accepted());
  }
  service.flush();
  const std::uint64_t warm_epochs = service.stats().epochs;

  // Lone submissions 20 ms apart on a shard whose epochs take far less: a
  // batch partner cannot arrive in time, so each drains at once rather than
  // after the 2 s deadline.
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(service.submit(0, QuerySpec("lone", workloads[0])).accepted());
    service.flush();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(500))
        << "lone submission " << i;
  }
  EXPECT_EQ(service.stats().epochs - warm_epochs, 10u);
}

TEST(Service, BurstIntoFreshShardDrainsAsOneEpoch) {
  EpochLog log;
  ServiceOptions options = base_options(1, 1);
  options.max_batch = 64;
  options.max_wait = std::chrono::seconds(10);
  const auto workloads = prepared_set(4);
  Service service(options, log.callback());

  // A fresh shard has measured nothing, so it waits for the batch to fill
  // instead of dispatching the burst's first submission alone.
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(service
                    .submit(0, QuerySpec(testing::numbered("q", i),
                                         workloads[i % workloads.size()]))
                    .accepted());
  }
  service.flush();
  service.stop();
  EXPECT_EQ(service.stats().epochs, 1u);
  ASSERT_EQ(log.epochs.size(), 1u);
  EXPECT_EQ(log.epochs[0].queries.size(), 64u);
}

TEST(Service, FailedEpochsCompleteTheirTicketsAndTheShardRecovers) {
  ServiceOptions options = base_options(1, 1);
  options.max_batch = 1;  // every submission is its own epoch
  // The small join's epoch ends well inside max_time (0.07 s); the 1000x
  // join's flows, fair-shared, run past it (the last finishes at 69 s), so
  // its drain throws from the simulator's guard.
  options.engine.allocator = "fair";
  options.engine.sim.max_time = 10.0;
  const auto small = std::make_shared<const data::Workload>(tiny_workload(1));
  const auto big =
      std::make_shared<const data::Workload>(tiny_workload(2, 1000.0));

  EpochLog log;
  const Service::EpochCallback record = log.callback();
  constexpr std::uint64_t kThrowingCallbackSeq = 3;
  Service service(options, [&record](const ShardEpoch& epoch) {
    record(epoch);
    if (epoch.seq == kThrowingCallbackSeq) {
      throw std::runtime_error("handler failed");
    }
  });
  // small, big (fails: miss), small, small (its handler throws), big (fails:
  // plan-cache hit), small.
  const std::vector<std::shared_ptr<const data::Workload>> stream = {
      small, big, small, small, big, small};
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(
        service.submit(0, QuerySpec("q" + std::to_string(i), stream[i]))
            .accepted());
    service.flush();  // one epoch per submission, in stream order
  }
  service.stop();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.epochs, 6u);
  EXPECT_EQ(stats.failed_epochs, 3u);  // two drains and one handler

  ASSERT_EQ(log.epochs.size(), 6u);
  for (std::size_t i = 0; i < log.epochs.size(); ++i) {
    const ShardEpoch& epoch = log.epochs[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(epoch.seq, i);
    ASSERT_EQ(epoch.queries.size(), 1u);
    if (stream[i] == big) {
      EXPECT_EQ(epoch.status, EpochStatus::kFailed);
      EXPECT_NE(epoch.error.find("max_time"), std::string::npos)
          << epoch.error;
      EXPECT_TRUE(epoch.report.queries.empty());
      continue;
    }
    EXPECT_EQ(epoch.status, EpochStatus::kOk);
    EXPECT_TRUE(epoch.error.empty());
    // Drains after a failed one start from a recovered session: each
    // replays bit-identically through a fresh Engine.
    Engine fresh(options.engine);
    for (const ServiceQuery& q : epoch.queries) fresh.submit(q.spec);
    expect_identical_numbers(epoch.report, fresh.drain());
  }
}

}  // namespace
}  // namespace ccf::core
