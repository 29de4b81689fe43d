// Assorted edge cases across the stack: degenerate cluster sizes, empty and
// all-zero inputs, heterogeneous fabrics, engine guard rails, and
// allocator choice inside the pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "join/schedulers.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "testing/names.hpp"

namespace ccf {
namespace {

data::Workload tiny_workload(std::size_t nodes, std::size_t partitions,
                             double skew = 0.2) {
  data::WorkloadSpec spec;
  spec.nodes = nodes;
  spec.partitions = partitions;
  spec.customer_bytes = 1e5;
  spec.orders_bytes = 1e6;
  spec.skew = skew;
  spec.seed = 17;
  return data::generate_workload(spec);
}

TEST(EdgeCases, SingleNodePipelineIsFree) {
  const auto w = tiny_workload(1, 5);
  for (const char* name : {"hash", "mini", "ccf"}) {
    const auto r =
        core::run_pipeline(w, core::PipelineOptions::paper_system(name));
    EXPECT_DOUBLE_EQ(r.traffic_bytes, 0.0) << name;
    EXPECT_DOUBLE_EQ(r.cct_seconds, 0.0) << name;
    EXPECT_EQ(r.flow_count, 0u) << name;
  }
}

TEST(EdgeCases, SinglePartitionStillSchedules) {
  const auto w = tiny_workload(4, 1, 0.0);
  const auto r = core::run_pipeline(w, core::PipelineOptions::paper_system("ccf"));
  EXPECT_GT(r.traffic_bytes, 0.0);
  EXPECT_NEAR(r.cct_seconds, r.gamma_seconds, 1e-9 * r.gamma_seconds);
}

TEST(EdgeCases, AllZeroMatrixSchedulesToNoTraffic) {
  data::ChunkMatrix m(10, 4);  // all zeros
  opt::AssignmentProblem p;
  p.matrix = &m;
  for (const char* name : {"hash", "mini", "ccf", "ccf-ls", "exact"}) {
    const auto dest = join::make_scheduler(name)->schedule(p);
    EXPECT_DOUBLE_EQ(opt::makespan(p, dest), 0.0) << name;
  }
}

TEST(EdgeCases, PipelineUnderEveryAllocator) {
  const auto w = tiny_workload(6, 30);
  core::PipelineOptions opts = core::PipelineOptions::paper_system("ccf");
  opts.allocator = "madd";
  const double madd = core::run_pipeline(w, opts).cct_seconds;
  opts.allocator = "varys";
  const double varys = core::run_pipeline(w, opts).cct_seconds;
  opts.allocator = "aalo";
  const double aalo = core::run_pipeline(w, opts).cct_seconds;
  opts.allocator = "fair";
  const double fair = core::run_pipeline(w, opts).cct_seconds;
  // Single coflow: Varys degenerates to MADD; Aalo and fair can only lose.
  EXPECT_NEAR(varys, madd, 1e-9 * madd);
  EXPECT_GE(aalo, madd * (1.0 - 1e-9));
  EXPECT_GE(fair, madd * (1.0 - 1e-9));
}

TEST(EdgeCases, SkewPresentButHandlingDisabledKeepsFullMatrix) {
  const auto w = tiny_workload(5, 20, 0.5);
  core::PipelineOptions opts = core::PipelineOptions::paper_system("ccf");
  opts.skew_handling = false;
  const auto r = core::run_pipeline(w, opts);
  EXPECT_FALSE(r.skew_handled);
  // Without partial duplication the hot mass must cross the wire: traffic at
  // least the remote share of the hot partition.
  EXPECT_GT(r.traffic_bytes, 0.3 * w.skew.skewed_bytes_total());
}

TEST(EdgeCases, HeterogeneousFabricMaddStillHitsGamma) {
  std::vector<double> egress = {10.0, 5.0, 20.0};
  std::vector<double> ingress = {8.0, 16.0, 4.0};
  const net::Fabric fabric(egress, ingress);
  net::FlowMatrix flows(3);
  flows.set(0, 1, 40.0);
  flows.set(1, 2, 12.0);
  flows.set(2, 0, 24.0);
  const double gamma = net::gamma_bound(flows, fabric);
  net::Simulator sim(fabric, net::make_allocator("madd"));
  sim.add_coflow(net::CoflowSpec("c", 0.0, std::move(flows)));
  EXPECT_NEAR(sim.run().coflows[0].cct(), gamma, 1e-9 * gamma);
}

TEST(EdgeCases, SimulatorMaxEventsGuardFires) {
  net::SimConfig cfg;
  cfg.max_events = 1;
  net::FlowMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 30.0);  // fair sharing needs 2 epochs
  net::Simulator sim(net::Fabric(3, 1.0), net::make_allocator("fair"), cfg);
  sim.add_coflow(net::CoflowSpec("c", 0.0, std::move(m)));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(EdgeCases, SimulatorMaxTimeGuardFires) {
  net::SimConfig cfg;
  cfg.max_time = 0.5;  // the flow needs 10 s
  net::FlowMatrix m(2);
  m.set(0, 1, 10.0);
  net::CoflowSpec first("a", 0.0, m);
  net::CoflowSpec second("b", 1.0, m);  // forces a second epoch past max_time
  net::Simulator sim(net::Fabric(2, 1.0), net::make_allocator("fair"), cfg);
  sim.add_coflow(std::move(first));
  sim.add_coflow(std::move(second));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// A lone flow completes at one event, the run's last. The clock passes
// max_time on the way there, and that alone must stop the run, in both
// engines.
void expect_max_time_stops_lone_flow(const char* allocator) {
  for (const net::SimEngine engine :
       {net::SimEngine::kIncremental, net::SimEngine::kReference}) {
    net::SimConfig cfg;
    cfg.max_time = 0.5;  // the flow needs 10 s
    cfg.engine = engine;
    net::FlowMatrix m(2);
    m.set(0, 1, 10.0);
    net::Simulator sim(net::Fabric(2, 1.0), net::make_allocator(allocator),
                       cfg);
    sim.add_coflow(net::CoflowSpec("c", 0.0, std::move(m)));
    try {
      sim.run();
      ADD_FAILURE() << allocator << ": the run ended past max_time";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("max_time"), std::string::npos)
          << e.what();
    }
  }
}

TEST(EdgeCases, MaxTimeStopsALoneFlowUnderMadd) {
  expect_max_time_stops_lone_flow("madd");
}

TEST(EdgeCases, MaxTimeStopsALoneFlowUnderVarys) {
  expect_max_time_stops_lone_flow("varys");
}

TEST(EdgeCases, MaxTimeStopsALoneFlowUnderFair) {
  expect_max_time_stops_lone_flow("fair");
}

TEST(EdgeCases, TinyFlowsBelowEpsilonAreDropped) {
  net::FlowMatrix m(2);
  m.set(0, 1, 1e-9);  // below completion_epsilon
  net::Simulator sim(net::Fabric(2, 1.0), net::make_allocator("madd"));
  sim.add_coflow(net::CoflowSpec("c", 0.0, std::move(m)));
  const auto r = sim.run();
  EXPECT_DOUBLE_EQ(r.coflows[0].cct(), 0.0);
  EXPECT_EQ(r.coflows[0].flows, 0u);
}

TEST(EdgeCases, ZeroWeightDrainEpochHasNoNaNs) {
  // An all-zero-weight epoch is legal (weight >= 0): the ordering scheduler
  // must still drain every coflow, total weighted CCT is exactly 0, and the
  // weighted average guards its denominator (0.0, not 0/0 = NaN).
  for (const char* allocator : {"sincronia", "lp-order", "madd"}) {
    net::Simulator sim(net::Fabric(3, 1.0),
                       core::registry::make_allocator(allocator));
    for (std::size_t c = 0; c < 3; ++c) {
      net::FlowMatrix m(3);
      m.set(c, (c + 1) % 3, 4.0 + static_cast<double>(c));
      net::CoflowSpec spec(testing::numbered("z", c), 0.0, std::move(m));
      spec.weight = 0.0;
      sim.add_coflow(std::move(spec));
    }
    const net::SimReport report = sim.run();
    ASSERT_EQ(report.coflows.size(), 3u) << allocator;
    for (const auto& coflow : report.coflows) {
      EXPECT_GT(coflow.completion, 0.0) << allocator;  // still drained
    }
    EXPECT_DOUBLE_EQ(net::total_weighted_cct(report), 0.0) << allocator;
    const double avg = net::weighted_average_cct(report);
    EXPECT_FALSE(std::isnan(avg)) << allocator;
    EXPECT_DOUBLE_EQ(avg, 0.0) << allocator;
    // The unweighted metric is untouched by weights.
    EXPECT_GT(report.average_cct(), 0.0) << allocator;
  }
}

TEST(EdgeCases, EqualSizedChunksAnyDestinationTies) {
  // Perfectly uniform matrix: CCF must still produce a balanced plan.
  data::ChunkMatrix m(8, 4);
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t i = 0; i < 4; ++i) m.set(k, i, 10.0);
  }
  opt::AssignmentProblem p;
  p.matrix = &m;
  const auto dest = join::CcfScheduler().schedule(p);
  const auto loads = opt::evaluate(p, dest);
  // Optimal T here: each node receives 2 partitions x 30 remote bytes = 60.
  EXPECT_DOUBLE_EQ(loads.makespan(), 60.0);
}

}  // namespace
}  // namespace ccf
