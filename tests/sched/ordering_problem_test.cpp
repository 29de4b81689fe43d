// OrderingProblem's input contract (sched/ordering.hpp): reset() and
// add_coflow() throw std::invalid_argument on a bad capacity, weight, link
// or load, and a call that throws leaves the problem exactly as it was —
// no half-appended row for the next add_coflow to absorb, no rejected
// capacity left in place.
#include "sched/ordering.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace ccf::sched {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_same(const OrderingProblem& got, const OrderingProblem& want) {
  EXPECT_EQ(got.capacity, want.capacity);
  EXPECT_EQ(got.weight, want.weight);
  EXPECT_EQ(got.row_offset, want.row_offset);
  EXPECT_EQ(got.demand_link, want.demand_link);
  EXPECT_EQ(got.demand_load, want.demand_load);
}

/// Three links, two coflows: the state every rejected call must leave alone.
OrderingProblem two_coflows() {
  OrderingProblem p;
  p.reset(std::vector<double>{1.0, 2.0, 4.0});
  p.add_coflow(1.0, std::vector<std::uint32_t>{0, 2},
               std::vector<double>{3.0, 5.0});
  p.add_coflow(2.0, std::vector<std::uint32_t>{1}, std::vector<double>{7.0});
  return p;
}

TEST(OrderingProblemInput, RejectedCapacitiesLeaveTheProblemUnchanged) {
  for (const double bad : {0.0, -1.0, kNaN, kInf, -kInf}) {
    OrderingProblem p = two_coflows();
    const OrderingProblem before = p;
    EXPECT_THROW(p.reset(std::vector<double>{1.0, bad, 3.0}),
                 std::invalid_argument)
        << bad;
    expect_same(p, before);
  }
}

TEST(OrderingProblemInput, RejectedWeightsLeaveTheProblemUnchanged) {
  for (const double bad : {-1.0, kNaN, kInf}) {
    OrderingProblem p = two_coflows();
    const OrderingProblem before = p;
    EXPECT_THROW(p.add_coflow(bad, std::vector<std::uint32_t>{0},
                              std::vector<double>{1.0}),
                 std::invalid_argument)
        << bad;
    expect_same(p, before);
  }
}

TEST(OrderingProblemInput, SizeMismatchLeavesTheProblemUnchanged) {
  OrderingProblem p = two_coflows();
  const OrderingProblem before = p;
  EXPECT_THROW(p.add_coflow(1.0, std::vector<std::uint32_t>{0, 1},
                            std::vector<double>{1.0}),
               std::invalid_argument);
  expect_same(p, before);
}

// The bad entry comes after valid ones, which add_coflow must not keep.
TEST(OrderingProblemInput, LinkOutOfRangeLeavesTheProblemUnchanged) {
  OrderingProblem p = two_coflows();
  const OrderingProblem before = p;
  EXPECT_THROW(p.add_coflow(1.0, std::vector<std::uint32_t>{0, 1, 7},
                            std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
  expect_same(p, before);

  // The next clean coflow gets a row of its own entries only.
  p.add_coflow(1.0, std::vector<std::uint32_t>{2}, std::vector<double>{5.0});
  ASSERT_EQ(p.coflow_count(), 3u);
  EXPECT_EQ(p.row_offset[3] - p.row_offset[2], 1u);
  EXPECT_EQ(p.demand_link.back(), 2u);
  EXPECT_EQ(p.demand_load.back(), 5.0);
}

TEST(OrderingProblemInput, RejectedLoadsLeaveTheProblemUnchanged) {
  for (const double bad : {-1.0, kNaN, kInf}) {
    OrderingProblem p = two_coflows();
    const OrderingProblem before = p;
    EXPECT_THROW(p.add_coflow(1.0, std::vector<std::uint32_t>{0, 1, 2},
                              std::vector<double>{1.0, 2.0, bad}),
                 std::invalid_argument)
        << bad;
    expect_same(p, before);
  }
}

// A default-constructed problem has no links, so every link is out of
// range; the throw must not even start its CSR offsets.
TEST(OrderingProblemInput, RejectedCoflowLeavesAFreshProblemUnchanged) {
  OrderingProblem p;
  const OrderingProblem before = p;
  EXPECT_THROW(p.add_coflow(1.0, std::vector<std::uint32_t>{0},
                            std::vector<double>{1.0}),
               std::invalid_argument);
  expect_same(p, before);
}

}  // namespace
}  // namespace ccf::sched
