// Pins the policy registry (core/registry.hpp) against the layer factories
// it fronts: every listed name must resolve, and resolve through its own
// layer to an implementation that reports the same name.
#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sched/ordering.hpp"

namespace ccf::core::registry {
namespace {

TEST(Registry, SchedulerNamesResolveThroughTheJoinFactory) {
  EXPECT_GE(scheduler_names().size(), 7u);
  for (const auto name : scheduler_names()) {
    const std::string n(name);
    EXPECT_TRUE(has_scheduler(name)) << n;
    const auto scheduler = make_scheduler(n);
    ASSERT_NE(scheduler, nullptr) << n;
    EXPECT_EQ(scheduler->name(), n);
    // The registry delegates to the layer factory — same instance behavior.
    EXPECT_EQ(join::make_scheduler(n)->name(), n);
  }
}

TEST(Registry, AllocatorNamesResolveThroughTheirLayerFactories) {
  EXPECT_GE(allocator_names().size(), 7u);
  for (const auto name : allocator_names()) {
    const std::string n(name);
    EXPECT_TRUE(has_allocator(name)) << n;
    const auto allocator = make_allocator(n);
    ASSERT_NE(allocator, nullptr) << n;
    EXPECT_EQ(allocator->name(), n);
    // The registry dispatches ordering schedulers to the sched layer and
    // everything else to the net factory; each name must resolve through
    // exactly its own layer.
    if (sched::has_ordering(name)) {
      EXPECT_EQ(sched::make_ordered_allocator(n)->name(), n);
      EXPECT_THROW(net::make_allocator(n), std::invalid_argument) << n;
    } else {
      EXPECT_EQ(net::make_allocator(n)->name(), n);
    }
  }
}

TEST(Registry, OrderingSchedulersAreRegisteredAllocators) {
  // The names the sched layer exports must all be reachable through the
  // registry (this is how ccf_sim / ccf_serve / the Engine see them), and
  // the --help text those tools print — allocator_name_list() verbatim —
  // must advertise them.
  EXPECT_GE(sched::ordering_names().size(), 2u);
  const std::string help = allocator_name_list();
  for (const auto name : sched::ordering_names()) {
    EXPECT_TRUE(has_allocator(name)) << name;
    EXPECT_NE(help.find(name), std::string::npos) << name;
    EXPECT_NE(sched::make_ordering(std::string(name)), nullptr);
  }
  EXPECT_TRUE(has_allocator("sincronia"));
  EXPECT_TRUE(has_allocator("lp-order"));
  EXPECT_FALSE(sched::has_ordering("varys"));
  EXPECT_THROW(sched::make_ordering("varys"), std::invalid_argument);
}

TEST(Registry, RoutingNamesResolveThroughTheNetFactory) {
  EXPECT_GE(routing_names().size(), 3u);
  for (const auto name : routing_names()) {
    const std::string n(name);
    EXPECT_TRUE(has_routing(name)) << n;
    const auto routing = make_routing(n);
    ASSERT_NE(routing, nullptr) << n;
    EXPECT_EQ(routing->name(), n);
    EXPECT_EQ(net::make_routing_policy(n)->name(), n);
  }
}

TEST(Registry, HelpListsContainEveryName) {
  const std::string schedulers = scheduler_name_list();
  for (const auto name : scheduler_names()) {
    EXPECT_NE(schedulers.find(name), std::string::npos) << name;
  }
  const std::string allocators = allocator_name_list();
  for (const auto name : allocator_names()) {
    EXPECT_NE(allocators.find(name), std::string::npos) << name;
  }
  const std::string routings = routing_name_list();
  for (const auto name : routing_names()) {
    EXPECT_NE(routings.find(name), std::string::npos) << name;
  }
  EXPECT_NE(schedulers.find(" | "), std::string::npos);
  EXPECT_NE(allocators.find(" | "), std::string::npos);
  EXPECT_NE(routings.find(" | "), std::string::npos);
}

TEST(Registry, UnknownNamesAreRejected) {
  EXPECT_FALSE(has_scheduler("bogus"));
  EXPECT_FALSE(has_allocator("bogus"));
  EXPECT_FALSE(has_routing("bogus"));
  EXPECT_THROW(make_scheduler("bogus"), std::invalid_argument);
  EXPECT_THROW(make_allocator("bogus"), std::invalid_argument);
  EXPECT_THROW(make_routing("bogus"), std::invalid_argument);
  // Case and whitespace are significant: names are exact tokens.
  EXPECT_FALSE(has_scheduler("CCF"));
  EXPECT_FALSE(has_allocator(" madd"));
  EXPECT_FALSE(has_routing("ECMP"));
  EXPECT_FALSE(has_allocator("Sincronia"));
  EXPECT_FALSE(has_allocator("lp_order"));
}

}  // namespace
}  // namespace ccf::core::registry
