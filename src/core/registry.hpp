// The policy registry: the single place that turns a user-facing policy name
// into an implementation — placement schedulers (join::PartitionScheduler),
// rate allocators (net::RateAllocator, the inter-coflow schedulers) and
// routing policies (net::RoutingPolicy). The pipeline, the Engine, the CLI
// tools and the benches all dispatch through it, and their --help texts
// print its live name lists instead of hard-coded strings.
//
// The names live with their layers: each layer factory looks names up in
// one static {name, factory} table (util/name_table.hpp) that also backs
// its *_names() span. The registry keeps no names of its own.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "join/schedulers.hpp"
#include "net/allocator.hpp"
#include "net/multipath.hpp"

namespace ccf::core::registry {

/// Canonical name lists: join::scheduler_names(); net::allocator_names()
/// ("fair", "madd", "varys", "aalo", "varys-edf") followed by
/// sched::ordering_names() ("sincronia", "lp-order"); and
/// net::routing_policy_names() ("ecmp", "greedy", "joint").
using join::scheduler_names;
std::span<const std::string_view> allocator_names();
std::span<const std::string_view> routing_names();

/// " | "-joined name list for --help texts, e.g. "hash | mini | ccf | ...".
std::string scheduler_name_list();
std::string allocator_name_list();
std::string routing_name_list();

/// Allocation-free scans of the layers' static tables (the Service checks
/// the scheduler of every submission).
bool has_scheduler(std::string_view name);
bool has_allocator(std::string_view name);
bool has_routing(std::string_view name);

/// Resolve by registered name; throw std::invalid_argument on unknown names.
/// The ordering allocators dispatch to sched::make_ordered_allocator.
using join::make_scheduler;
std::unique_ptr<net::RateAllocator> make_allocator(const std::string& name);
std::unique_ptr<net::RoutingPolicy> make_routing(const std::string& name);

}  // namespace ccf::core::registry
