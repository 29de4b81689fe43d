// Pins the Service's sparse ingestion path (core/service.hpp):
// SparseCoflowSpec submissions are validated at the door (kInvalid, never a
// driver-thread exception), drain through shard epochs exactly like
// workload submissions, replay bit-identically through a fresh Engine from
// the recorded ShardEpoch (the spec rides the QuerySpec verbatim), and mix
// freely with dense prepared-workload submissions inside one epoch.
//
// The suite carries the tsan_smoke label alongside service_test: client
// threads race the shard drivers on the sparse path too.
#include "core/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "data/workload.hpp"
#include "net/coflow.hpp"
#include "testing/names.hpp"

namespace ccf::core {
namespace {

data::Workload tiny_workload(std::uint64_t seed) {
  data::WorkloadSpec spec;
  spec.nodes = 4;
  spec.partitions = 8;
  spec.customer_bytes = 4e6;
  spec.orders_bytes = 4e7;
  spec.zipf_theta = 0.8;
  spec.skew = 0.3;
  spec.seed = seed;
  return data::generate_workload(spec);
}

net::SparseCoflowSpec sparse_coflow(const std::string& name, double arrival,
                                    double scale) {
  std::vector<net::Flow> flows(3);
  flows[0].src = 0, flows[0].dst = 2, flows[0].volume = 4e6 * scale;
  flows[1].src = 1, flows[1].dst = 3, flows[1].volume = 2e6 * scale;
  flows[2].src = 3, flows[2].dst = 0, flows[2].volume = 1e6 * scale;
  return net::SparseCoflowSpec(name, arrival, std::move(flows));
}

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

ServiceOptions sparse_options() {
  ServiceOptions options;
  options.engine.nodes = 4;
  options.shards = 1;
  options.max_batch = 4;
  options.max_wait = std::chrono::microseconds(200);
  return options;
}

void expect_identical_numbers(const EngineReport& a, const EngineReport& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    EXPECT_EQ(a.queries[q].traffic_bytes, b.queries[q].traffic_bytes) << q;
    EXPECT_EQ(a.queries[q].gamma_seconds, b.queries[q].gamma_seconds) << q;
    EXPECT_EQ(a.queries[q].cct_seconds, b.queries[q].cct_seconds) << q;
    EXPECT_EQ(a.queries[q].flow_count, b.queries[q].flow_count) << q;
  }
  EXPECT_EQ(a.sim.events, b.sim.events);
  EXPECT_EQ(a.sim.total_bytes, b.sim.total_bytes);
  ASSERT_EQ(a.sim.coflows.size(), b.sim.coflows.size());
  for (std::size_t c = 0; c < a.sim.coflows.size(); ++c) {
    EXPECT_EQ(a.sim.coflows[c].name, b.sim.coflows[c].name) << c;
    EXPECT_EQ(a.sim.coflows[c].completion, b.sim.coflows[c].completion) << c;
  }
}

TEST(ServiceSparse, DrainsSparseSubmissionsAndReplaysBitIdentically) {
  EpochLog log;
  const ServiceOptions options = sparse_options();
  {
    Service service(options, log.callback());
    for (int i = 0; i < 8; ++i) {
      const SubmitResult r = service.submit(
          0, sparse_coflow(testing::numbered("s", i), 0.1 * i, 1.0 + i));
      ASSERT_TRUE(r.accepted()) << i;
    }
    service.flush();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.accepted, 8u);
    EXPECT_EQ(stats.completed, 8u);
  }

  ASSERT_FALSE(log.epochs.empty());
  std::size_t replayed = 0;
  for (const ShardEpoch& epoch : log.epochs) {
    Engine engine(EngineOptions(options.engine));
    for (const ServiceQuery& q : epoch.queries) {
      ASSERT_TRUE(q.spec.sparse);  // the spec rides the record verbatim
      engine.submit(QuerySpec(q.spec));
    }
    expect_identical_numbers(engine.drain(), epoch.report);
    replayed += epoch.queries.size();
  }
  EXPECT_EQ(replayed, 8u);
}

TEST(ServiceSparse, RejectsInvalidSparseSpecsAtTheDoor) {
  Service service(sparse_options());

  net::SparseCoflowSpec diagonal = sparse_coflow("bad", 0.0, 1.0);
  diagonal.flows[1].dst = diagonal.flows[1].src;
  EXPECT_EQ(service.submit(0, std::move(diagonal)).status,
            SubmitStatus::kInvalid);

  net::SparseCoflowSpec out_of_range = sparse_coflow("bad", 0.0, 1.0);
  out_of_range.flows[0].dst = 4;  // fabric is 4 nodes
  EXPECT_EQ(service.submit(0, std::move(out_of_range)).status,
            SubmitStatus::kInvalid);

  net::SparseCoflowSpec negative = sparse_coflow("bad", -1.0, 1.0);
  EXPECT_EQ(service.submit(0, std::move(negative)).status,
            SubmitStatus::kInvalid);

  net::SparseCoflowSpec bad_weight = sparse_coflow("bad", 0.0, 1.0);
  bad_weight.weight = -2.0;
  EXPECT_EQ(service.submit(0, std::move(bad_weight)).status,
            SubmitStatus::kInvalid);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.invalid, 4u);
  EXPECT_EQ(stats.accepted, 0u);

  // The service is still healthy: a valid spec sails through.
  EXPECT_TRUE(service.submit(0, sparse_coflow("good", 0.0, 1.0)).accepted());
  service.flush();
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(ServiceSparse, MixedDenseAndSparseEpochsReplay) {
  EpochLog log;
  const ServiceOptions options = sparse_options();
  const auto workload =
      std::make_shared<const data::Workload>(tiny_workload(900));
  {
    Service service(options, log.callback());
    for (int i = 0; i < 6; ++i) {
      SubmitResult r;
      if (i % 2 == 0) {
        r = service.submit(0, QuerySpec(testing::numbered("q", i), workload));
      } else {
        r = service.submit(0,
                           sparse_coflow(testing::numbered("s", i), 0.0, 2.0));
      }
      ASSERT_TRUE(r.accepted()) << i;
    }
    service.flush();
    EXPECT_EQ(service.stats().completed, 6u);
  }

  std::size_t sparse_seen = 0, dense_seen = 0;
  for (const ShardEpoch& epoch : log.epochs) {
    Engine engine(EngineOptions(options.engine));
    for (const ServiceQuery& q : epoch.queries) {
      q.spec.sparse ? ++sparse_seen : ++dense_seen;
      engine.submit(QuerySpec(q.spec));
    }
    expect_identical_numbers(engine.drain(), epoch.report);
  }
  EXPECT_EQ(sparse_seen, 3u);
  EXPECT_EQ(dense_seen, 3u);
}

}  // namespace
}  // namespace ccf::core
