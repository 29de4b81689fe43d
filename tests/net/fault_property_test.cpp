// Fault-determinism properties (ISSUE 4):
//  * same seed + same FaultSchedule => bit-identical CCTs, event counts and
//    per-epoch traces across engine modes and advance-parallelism settings;
//  * an empty FaultSchedule is indistinguishable — bit-for-bit — from never
//    installing one (the fault machinery must be fully gated);
//  * faulted runs conserve bytes and always terminate (random schedules
//    restore every degradation).
// Comparisons are == on doubles by design: the engines promise bit-identical
// event sequences, and any divergence under faults is a staleness bug.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "net/simulator.hpp"
#include "testing/invariants.hpp"
#include "testing/leaf_spine.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

FlowMatrix random_matrix(std::size_t n, util::Pcg32& rng, double density,
                         double max_volume) {
  FlowMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < density) {
        m.set(i, j, rng.uniform(1.0, max_volume));
      }
    }
  }
  return m;
}

std::vector<CoflowSpec> make_workload(std::size_t nodes, std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 21), 21);
  std::vector<CoflowSpec> specs;
  for (std::size_t c = 0; c < 6; ++c) {
    specs.emplace_back("c" + std::to_string(c), rng.uniform(0.0, 4.0),
                       random_matrix(nodes, rng, 0.4, 150.0));
  }
  return specs;
}

FaultSchedule make_faults(const Network& network, std::uint64_t seed) {
  util::Pcg32 rng(util::derive_seed(seed, 22), 22);
  RandomFaultOptions opts;
  opts.horizon = 10.0;
  opts.outage = 3.0;
  return FaultSchedule::random(network, opts, rng);
}

struct RunSetup {
  std::string allocator = "madd";
  bool rack = false;
  SimEngine engine = SimEngine::kIncremental;
  std::size_t parallel_threshold = SimConfig{}.parallel_advance_threshold;
  bool install_faults = true;   ///< false: never call set_faults at all
  bool empty_schedule = false;  ///< true: install an empty FaultSchedule
  FaultOptions options;
};

struct RunResult {
  SimReport report;
  std::vector<TraceEvent> trace;
};

RunResult run(std::uint64_t seed, const RunSetup& setup) {
  SimConfig config;
  config.engine = setup.engine;
  config.parallel_advance_threshold = setup.parallel_threshold;
  config.record_trace = true;
  auto network =
      setup.rack ? std::shared_ptr<const Network>(
                       testing::one_spine_leaf_spine(3, 2, 10.0))
                 : std::shared_ptr<const Network>(new Fabric(6, 10.0));
  Simulator sim(network, testing::make_invariant_checked(setup.allocator),
                config);
  if (setup.install_faults) {
    sim.set_faults(setup.empty_schedule ? FaultSchedule{}
                                        : make_faults(*network, seed),
                   setup.options);
  }
  for (const auto& spec : make_workload(6, seed)) sim.add_coflow(spec);
  RunResult result;
  result.report = sim.run();
  result.trace = sim.trace();
  return result;
}

/// Bit-exact equality of everything observable about a run.
void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.report.events, b.report.events);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.total_bytes, b.report.total_bytes);
  EXPECT_EQ(a.report.fault_events, b.report.fault_events);
  EXPECT_EQ(a.report.replacements, b.report.replacements);
  ASSERT_EQ(a.report.coflows.size(), b.report.coflows.size());
  for (std::size_t c = 0; c < a.report.coflows.size(); ++c) {
    EXPECT_EQ(a.report.coflows[c].completion, b.report.coflows[c].completion)
        << a.report.coflows[c].name;
    EXPECT_EQ(a.report.coflows[c].bytes, b.report.coflows[c].bytes)
        << a.report.coflows[c].name;
    EXPECT_EQ(a.report.coflows[c].rejected, b.report.coflows[c].rejected);
  }
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    EXPECT_EQ(a.trace[e].time, b.trace[e].time) << "event " << e;
    EXPECT_EQ(a.trace[e].active_flows, b.trace[e].active_flows);
    EXPECT_EQ(a.trace[e].completed_flows, b.trace[e].completed_flows);
  }
}

using Combo = std::tuple<std::uint64_t, std::string>;

class FaultDeterminism : public ::testing::TestWithParam<Combo> {};

TEST_P(FaultDeterminism, RepeatRunsAreBitIdentical) {
  const auto& [seed, allocator] = GetParam();
  for (const bool rack : {false, true}) {
    RunSetup setup;
    setup.allocator = allocator;
    setup.rack = rack;
    expect_identical(run(seed, setup), run(seed, setup));
  }
}

TEST_P(FaultDeterminism, EngineModesAgreeBitForBit) {
  const auto& [seed, allocator] = GetParam();
  RunSetup ref;
  ref.allocator = allocator;
  ref.engine = SimEngine::kReference;
  RunSetup inc = ref;
  inc.engine = SimEngine::kIncremental;
  const RunResult a = run(seed, ref);
  const RunResult b = run(seed, inc);
  expect_identical(a, b);
  EXPECT_GT(b.report.fault_events, 0u);
}

TEST_P(FaultDeterminism, AdvanceThresholdDoesNotChangeResults) {
  // At this scale (< one advance chunk) both settings execute the same
  // sequential advance, so the runs must be bit-identical — this pins the
  // threshold plumbing; the chunked path itself is covered by the dedicated
  // large-scale test below.
  const auto& [seed, allocator] = GetParam();
  RunSetup seq;
  seq.allocator = allocator;
  RunSetup par = seq;
  par.parallel_threshold = 4;
  expect_identical(run(seed, seq), run(seed, par));
}

TEST_P(FaultDeterminism, ReplacementRunsAreDeterministicToo) {
  const auto& [seed, allocator] = GetParam();
  RunSetup setup;
  setup.allocator = allocator;
  setup.options.replace_on_failure = true;
  setup.options.replace_threshold = 0.0;
  const RunResult a = run(seed, setup);
  expect_identical(a, run(seed, setup));
}

TEST_P(FaultDeterminism, EmptyScheduleMatchesNoScheduleBitForBit) {
  const auto& [seed, allocator] = GetParam();
  for (const auto engine : {SimEngine::kIncremental, SimEngine::kReference}) {
    RunSetup none;
    none.allocator = allocator;
    none.engine = engine;
    none.install_faults = false;
    RunSetup empty = none;
    empty.install_faults = true;
    empty.empty_schedule = true;
    const RunResult a = run(seed, none);
    const RunResult b = run(seed, empty);
    expect_identical(a, b);
    EXPECT_EQ(b.report.fault_events, 0u);
  }
}

TEST(FaultParallelAdvance, ChunkedAdvanceAgreesWithSequentialUnderFaults) {
  // With > 2048 active flows every epoch takes the chunked parallel advance
  // (util::parallel_for, deterministic chunk boundaries). Event times,
  // counts and completions must match the sequential path bit-for-bit; byte
  // totals may differ by summation-order ulps across chunk merges, so those
  // compare within 1e-9 relative.
  for (const std::string allocator : {"fair", "madd"}) {
    util::Pcg32 rng(util::derive_seed(99, 23), 23);
    const FlowMatrix m = random_matrix(48, rng, 1.0, 50.0);
    auto run_big = [&](std::size_t threshold) {
      SimConfig config;
      config.parallel_advance_threshold = threshold;
      config.record_trace = true;
      Simulator sim(Fabric(48, 10.0),
                    testing::make_invariant_checked(allocator), config);
      FaultSchedule s;
      s.slow_node(1.0, 3, 0.5).restore_node(40.0, 3);
      s.fail_port(2.0, 7, PortSide::kIngress).restore_port(30.0, 7);
      sim.set_faults(s);
      sim.add_coflow(CoflowSpec("big", 0.0, m));
      RunResult result;
      result.report = sim.run();
      result.trace = sim.trace();
      return result;
    };
    const RunResult seq = run_big(1u << 20);
    const RunResult par = run_big(4);
    ASSERT_EQ(seq.report.events, par.report.events) << allocator;
    ASSERT_EQ(seq.trace.size(), par.trace.size()) << allocator;
    for (std::size_t e = 0; e < seq.trace.size(); ++e) {
      EXPECT_EQ(seq.trace[e].time, par.trace[e].time) << allocator;
      EXPECT_EQ(seq.trace[e].active_flows, par.trace[e].active_flows);
      EXPECT_EQ(seq.trace[e].completed_flows, par.trace[e].completed_flows);
    }
    EXPECT_EQ(seq.report.makespan, par.report.makespan) << allocator;
    EXPECT_EQ(seq.report.fault_events, par.report.fault_events);
    EXPECT_NEAR(seq.report.total_bytes, par.report.total_bytes,
                1e-9 * (1.0 + seq.report.total_bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultDeterminism,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values("fair", "madd", "varys", "aalo",
                                         "varys-edf")),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string alloc = std::get<1>(info.param);
      for (char& ch : alloc) {
        if (ch == '-') ch = '_';  // gtest names must be identifiers
      }
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + alloc;
    });

}  // namespace
}  // namespace ccf::net
