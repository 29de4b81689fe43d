#include "core/registry.hpp"

#include <algorithm>
#include <vector>

#include "sched/ordering.hpp"

namespace ccf::core::registry {
namespace {

bool contains(std::span<const std::string_view> names, std::string_view name) {
  return std::ranges::find(names, name) != names.end();
}

std::string join_names(std::span<const std::string_view> names) {
  std::string out;
  for (const std::string_view name : names) {
    if (!out.empty()) out += " | ";
    out += name;
  }
  return out;
}

}  // namespace

std::span<const std::string_view> allocator_names() {
  static const std::vector<std::string_view> names = [] {
    std::vector<std::string_view> out(net::allocator_names().begin(),
                                      net::allocator_names().end());
    out.insert(out.end(), sched::ordering_names().begin(),
               sched::ordering_names().end());
    return out;
  }();
  return names;
}

std::span<const std::string_view> routing_names() {
  return net::routing_policy_names();
}

std::string scheduler_name_list() { return join_names(scheduler_names()); }

std::string allocator_name_list() { return join_names(allocator_names()); }

std::string routing_name_list() { return join_names(routing_names()); }

bool has_scheduler(std::string_view name) {
  return contains(scheduler_names(), name);
}

bool has_allocator(std::string_view name) {
  return contains(net::allocator_names(), name) || sched::has_ordering(name);
}

bool has_routing(std::string_view name) {
  return contains(routing_names(), name);
}

std::unique_ptr<net::RateAllocator> make_allocator(const std::string& name) {
  if (sched::has_ordering(name)) return sched::make_ordered_allocator(name);
  return net::make_allocator(name);
}

std::unique_ptr<net::RoutingPolicy> make_routing(const std::string& name) {
  return net::make_routing_policy(name);
}

}  // namespace ccf::core::registry
