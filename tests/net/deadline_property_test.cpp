// Property sweep for the deadline allocator: over random batches of
// deadline coflows, everything varys-edf admits finishes by its deadline —
// the predictability guarantee that defines Varys's deadline mode.
#include <gtest/gtest.h>

#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "testing/names.hpp"
#include "util/rng.hpp"

namespace ccf::net {
namespace {

class DeadlineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeadlineProperty, EveryAdmittedCoflowMeetsItsDeadline) {
  util::Pcg32 rng(util::derive_seed(GetParam(), 111), 111);
  const std::size_t n = 4 + rng.bounded(8);
  const Fabric fabric(n, 10.0);
  Simulator sim(fabric, make_allocator("varys-edf"));

  double arrival = 0.0;
  const std::size_t count = 4 + rng.bounded(8);
  for (std::size_t c = 0; c < count; ++c) {
    FlowMatrix m(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.uniform01() < 0.3) {
          m.set(i, j, rng.uniform(1.0, 200.0));
        }
      }
    }
    if (m.traffic() <= 0.0) m.set(0, 1, 50.0);
    const double lone = gamma_bound(m, fabric);
    CoflowSpec spec(testing::numbered("c", c), arrival, std::move(m));
    // Deadlines from infeasible (0.5x) to generous (3x) of the lone bound.
    spec.deadline = lone * rng.uniform(0.5, 3.0);
    sim.add_coflow(std::move(spec));
    arrival += rng.uniform(0.0, lone);
  }

  const SimReport r = sim.run();
  std::size_t admitted = 0;
  for (const CoflowResult& c : r.coflows) {
    if (c.rejected) {
      EXPECT_DOUBLE_EQ(c.cct(), 0.0) << c.name;  // rejected at arrival
      continue;
    }
    ++admitted;
    EXPECT_TRUE(c.met_deadline())
        << c.name << " completed " << c.completion << " deadline "
        << c.deadline;
  }
  // Sanity: the generous deadlines should let at least one coflow in.
  EXPECT_GE(admitted, 1u);
}

TEST_P(DeadlineProperty, RejectionsNeverConsumeBandwidth) {
  util::Pcg32 rng(util::derive_seed(GetParam(), 112), 112);
  const std::size_t n = 5;
  const Fabric fabric(n, 10.0);
  Simulator sim(fabric, make_allocator("varys-edf"));
  double expected_bytes = 0.0;
  for (std::size_t c = 0; c < 6; ++c) {
    FlowMatrix m(n);
    m.set(c % n, (c + 1) % n, rng.uniform(50.0, 150.0));
    const double lone = gamma_bound(m, fabric);
    const bool feasible = c % 2 == 0;
    if (feasible) expected_bytes += m.traffic();
    CoflowSpec spec(testing::numbered("c", c), 0.0, std::move(m));
    // Same-port coflows arriving together: generous vs absurd deadlines.
    spec.deadline = feasible ? lone * 20.0 : lone * 0.01;
    sim.add_coflow(std::move(spec));
  }
  const SimReport r = sim.run();
  double delivered = 0.0;
  for (const CoflowResult& c : r.coflows) {
    if (!c.rejected) delivered += c.bytes;
  }
  EXPECT_NEAR(r.total_bytes, delivered, 1e-6 * delivered + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlineProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace ccf::net
