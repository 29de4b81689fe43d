// sched::sincronia_order against the linear-scan ordering it replaced
// (testing::sincronia_reference). The production ordering takes each
// iteration's bottleneck port from a max tournament tree instead of a scan
// of every link; the tree must return exactly the index the scan returns —
// the largest load, the smallest link id on ties — so the permutation and
// every bit of the dual certificate agree on every problem:
//   * continuous loads (ordering_property_test's generator), where ties are
//     rare and the tree's ordering of loads decides;
//   * loads on a 0.5 grid over equal capacities, where equal ports are
//     common and the smallest-id rule decides;
//   * zero weights, zero loads and demandless coflows, down to L = 0;
//   * L from 1 to 2,000, powers of two and not;
//   * the float-residue retire and a non-finite normalized load, by hand.
// The last test pins sincronia's completion times on a trace_sim-shaped
// simulation, recorded while the ordering still scanned every link.
#include "sched/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "net/fabric.hpp"
#include "net/simulator.hpp"
#include "net/trace.hpp"
#include "testing/ordering_problems.hpp"
#include "testing/sincronia_reference.hpp"
#include "util/rng.hpp"

namespace ccf::sched {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Link counts the generators cycle through: the smallest trees, powers of
/// two and their neighbours, and trace_sim's 1,000-rack fabric (2,000 links).
constexpr std::uint32_t kLinks[] = {1,  2,   3,   4,   5,   6,    7,   9,
                                    12, 31,  64,  100, 255, 257, 1000, 2000};
constexpr std::size_t kLinkKinds = std::size(kLinks);

/// Compare one problem with the reference; returns false on a mismatch so
/// the caller can stop at the first failing seed.
bool matches_reference(const OrderingProblem& p, const std::string& what) {
  std::vector<std::uint32_t> got, want;
  double got_dual = -1.0, want_dual = -2.0;
  sincronia_order(p, got, &got_dual);
  testing::sincronia_reference(p, want, &want_dual);
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(bits(got_dual), bits(want_dual))
      << what << ": dual " << got_dual << " vs " << want_dual;
  return got == want && bits(got_dual) == bits(want_dual);
}

// Loads on a 0.5 grid over unit capacities and weights on a 0.5 grid from 0:
// every port load is an exact sum, so equal ports are common.
OrderingProblem grid_problem(std::uint64_t seed, std::uint32_t coflows,
                             std::uint32_t links) {
  util::Pcg32 rng(util::derive_seed(seed, 733), 733);
  OrderingProblem p;
  p.reset(std::vector<double>(links, 1.0));
  std::vector<std::uint32_t> touched;
  std::vector<double> loads;
  for (std::uint32_t c = 0; c < coflows; ++c) {
    touched.clear();
    loads.clear();
    const std::uint32_t fan = 1 + rng.bounded(4);
    for (std::uint32_t f = 0; f < fan; ++f) {
      const std::uint32_t link = rng.bounded(links);
      if (std::ranges::find(touched, link) != touched.end()) continue;
      touched.push_back(link);
      loads.push_back(0.5 * (1 + rng.bounded(8)));
    }
    p.add_coflow(0.5 * rng.bounded(9), touched, loads);
  }
  return p;
}

// Zero weights, zero loads (which add_coflow drops) and coflows with no
// demand at all; with links == 0 every coflow is demandless.
OrderingProblem sparse_problem(std::uint64_t seed, std::uint32_t coflows,
                               std::uint32_t links) {
  util::Pcg32 rng(util::derive_seed(seed, 919), 919);
  std::vector<double> caps(links);
  for (double& c : caps) c = rng.uniform(0.5, 2.0);
  OrderingProblem p;
  p.reset(caps);
  std::vector<std::uint32_t> touched;
  std::vector<double> loads;
  for (std::uint32_t c = 0; c < coflows; ++c) {
    touched.clear();
    loads.clear();
    const std::uint32_t fan = links == 0 ? 0 : rng.bounded(5);
    for (std::uint32_t f = 0; f < fan; ++f) {
      const std::uint32_t link = rng.bounded(links);
      if (std::ranges::find(touched, link) != touched.end()) continue;
      touched.push_back(link);
      loads.push_back(rng.bounded(3) == 0 ? 0.0 : rng.uniform(0.1, 8.0));
    }
    p.add_coflow(rng.bounded(3) == 0 ? 0.0 : rng.uniform(0.25, 4.0), touched,
                 loads);
  }
  return p;
}

TEST(SincroniaOracle, ContinuousLoadsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const std::uint32_t links = kLinks[seed % kLinkKinds];
    const auto coflows = static_cast<std::uint32_t>(seed % 97);
    const OrderingProblem p =
        testing::random_ordering_problem(seed, coflows, links);
    if (!matches_reference(p, "continuous seed " + std::to_string(seed))) {
      return;
    }
  }
}

TEST(SincroniaOracle, TiedPortsGoToTheSmallestLinkAsInTheReference) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const std::uint32_t links = kLinks[seed % kLinkKinds];
    const auto coflows = static_cast<std::uint32_t>(seed % 97);
    if (!matches_reference(grid_problem(seed, coflows, links),
                           "grid seed " + std::to_string(seed))) {
      return;
    }
  }
}

TEST(SincroniaOracle, ZeroWeightsAndDemandlessCoflowsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    // Every 17th problem has no links at all.
    const std::uint32_t links =
        seed % 17 == 0 ? 0 : kLinks[seed % kLinkKinds];
    const auto coflows = static_cast<std::uint32_t>(seed % 41);
    if (!matches_reference(sparse_problem(seed, coflows, links),
                           "sparse seed " + std::to_string(seed))) {
      return;
    }
  }
}

TEST(SincroniaOracle, NoLinksGivesTheIdentity) {
  for (std::uint32_t n = 0; n <= 5; ++n) {
    OrderingProblem p;
    p.reset({});
    for (std::uint32_t c = 0; c < n; ++c) {
      p.add_coflow(1.0 + c, std::span<const std::uint32_t>{},
                   std::span<const double>{});
    }
    std::vector<std::uint32_t> out;
    double dual = -1.0;
    sincronia_order(p, out, &dual);
    std::vector<std::uint32_t> identity(n);
    for (std::uint32_t c = 0; c < n; ++c) identity[c] = c;
    EXPECT_EQ(out, identity) << "n " << n;
    EXPECT_EQ(bits(dual), bits(0.0)) << "n " << n;
    matches_reference(p, "no links, n " + std::to_string(n));
  }
}

// Link 0 carries 0.1 and 0.2, link 1 carries 2e-18 and link 2 1e-18. Taking
// 0.2 and then 0.1 off link 0's 0.1 + 0.2 leaves a residue of about 2.8e-17,
// which is still the largest port once both of its coflows are placed: the
// iteration finds no unplaced coflow in that column and retires the port.
// The two tiny coflows must then be ordered by their own ports (coflow 2 on
// the heavier link goes later), not emptied out in index order as they would
// be if the retired port still stood at the top.
TEST(SincroniaOracle, FloatResidueRetiresADrainedPort) {
  double residue = 0.0;
  residue += 0.1;
  residue += 0.2;
  residue -= 0.2;
  residue -= 0.1;
  ASSERT_GT(residue, 2e-18);

  OrderingProblem p;
  p.reset(std::vector<double>(3, 1.0));
  p.add_coflow(1.0, std::vector<std::uint32_t>{0}, std::vector<double>{0.1});
  p.add_coflow(1.0, std::vector<std::uint32_t>{0}, std::vector<double>{0.2});
  p.add_coflow(1.0, std::vector<std::uint32_t>{1}, std::vector<double>{2e-18});
  p.add_coflow(1.0, std::vector<std::uint32_t>{2}, std::vector<double>{1e-18});
  std::vector<std::uint32_t> out;
  sincronia_order(p, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 2, 0, 1}));
  matches_reference(p, "float residue");
}

// A load that overflows to +inf once normalized (1e10 bytes over a 1e-300
// capacity) turns its port into inf - inf = NaN when its coflow is placed.
// The scan's `>` never picks a NaN port, so the tree must not let one shadow
// its sibling: link 1 (load 5) is the next bottleneck, not an early exit.
TEST(SincroniaOracle, NonFiniteNormalizedLoadMatchesTheReference) {
  OrderingProblem p;
  p.reset(std::vector<double>{1e-300, 1.0, 1.0});
  p.add_coflow(1.0, std::vector<std::uint32_t>{0}, std::vector<double>{1e10});
  p.add_coflow(1.0, std::vector<std::uint32_t>{1}, std::vector<double>{5.0});
  p.add_coflow(1.0, std::vector<std::uint32_t>{2}, std::vector<double>{3.0});
  std::vector<std::uint32_t> out;
  sincronia_order(p, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2, 1, 0}));
  matches_reference(p, "non-finite load");
}

/// FNV-1a over the bytes of each value's bit pattern.
std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double v : values) {
    const std::uint64_t b = bits(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// trace_sim's first trace at seed 1 (1,000 racks, 250 coflows, arrivals over
// 1.5 s), simulated under the registered "sincronia" allocator on the flat
// 1,000-rack fabric. The pins were recorded while sincronia_order still
// scanned every link for its bottleneck.
TEST(SincroniaOracle, TraceSimShapedSimulationIsPinned) {
  net::SyntheticTraceOptions opts;
  opts.racks = 1000;
  opts.coflows = 250;
  opts.duration_seconds = 6e-3 * 250;
  util::Pcg32 rng(util::derive_seed(util::derive_seed(1, 83), 0), 83);
  net::Simulator sim(net::Fabric(1000),
                     core::registry::make_allocator("sincronia"));
  for (auto& spec : net::to_sparse_coflow_specs(
           net::generate_synthetic_trace(opts, rng))) {
    sim.add_coflow(std::move(spec));
  }
  const net::SimReport report = sim.run();
  std::vector<double> completions;
  double sum = 0.0;
  for (const net::CoflowResult& c : report.coflows) {
    completions.push_back(c.completion);
    sum += c.completion;
  }
  ASSERT_EQ(completions.size(), 250u);
  EXPECT_EQ(report.events, 499u);
  EXPECT_EQ(fnv1a_bits(completions), 0xa177bc30d3319717ull)
      << std::hex << fnv1a_bits(completions);
  // 1441.2053...; trace_sim reports it as trace_sim.completion_sum_s.sincronia
  // at seed 1.
  EXPECT_EQ(bits(sum), bits(0x1.684d24a65410fp+10)) << std::hexfloat << sum;
}

}  // namespace
}  // namespace ccf::sched
