// Extension bench: joint routing + scheduling on a multi-path leaf-spine
// (Topology::leaf_spine; the RAPIER direction of the paper's §V). Two
// workloads, both with oversubscribed uplinks:
//
//  (a) a CCF-placed TPC-H join coflow — CCF balances per-node loads so well
//      that even static ECMP hashing splits the uplinks evenly: routing is
//      nearly moot (a finding about co-optimized placement!);
//  (b) a heavy-tailed MapReduce-style shuffle from the synthetic trace
//      generator — few huge flows dominate, static hashing collides them on
//      the same spine links, and volume-greedy routing (route_greedy: heavy
//      flows first, each onto its least-bottlenecked spine) wins.
#include <iostream>

#include "core/ccf.hpp"
#include "net/topology.hpp"
#include "net/trace.hpp"
#include "util/cli.hpp"
#include "util/zipf.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

struct RoutingRow {
  double ecmp_cct = 0.0;
  double greedy_cct = 0.0;
};

RoutingRow run_point(const std::shared_ptr<const ccf::net::Topology>& topo,
                     const ccf::net::FlowMatrix& flows) {
  auto cct_for = [&](ccf::net::RouteChoice choice) {
    const auto net = std::make_shared<const ccf::net::RoutedTopology>(
        topo, std::move(choice));
    ccf::net::Simulator sim(net, ccf::net::make_allocator("madd"));
    sim.add_coflow(ccf::net::CoflowSpec("c", 0.0, flows));
    return sim.run().coflows[0].cct();
  };
  return RoutingRow{
      cct_for(ccf::net::route_ecmp(*topo)),
      cct_for(ccf::net::route_greedy(
          *topo, ccf::net::Demand::from_matrix(flows)))};
}

}  // namespace

int main(int argc, char** argv) {
  ccf::util::ArgParser args("bench_ext_routing",
                            "ECMP vs volume-greedy routing on leaf-spine");
  args.add_flag("racks", "6", "number of racks");
  args.add_flag("hosts", "10", "hosts per rack");
  args.add_flag("spines", "1:6:1", "spine-count sweep");
  args.add_flag("oversub", "3", "uplink oversubscription factor");
  args.add_flag("seed", "2", "rng seed for the heavy-tailed shuffle");
  args.parse(argc, argv);

  const auto racks = static_cast<std::size_t>(args.get_int("racks"));
  const auto hosts = static_cast<std::size_t>(args.get_int("hosts"));
  const std::size_t nodes = racks * hosts;
  const double oversub = args.get_double("oversub");

  // Workload (a): CCF-placed join.
  ccf::data::WorkloadSpec spec = ccf::data::WorkloadSpec::paper_default(nodes);
  spec.customer_bytes = 90e9 * static_cast<double>(nodes) / 500.0;
  spec.orders_bytes = 900e9 * static_cast<double>(nodes) / 500.0;
  const auto workload = ccf::data::generate_workload(spec);
  const auto prepared = ccf::core::apply_partial_duplication(workload, true);
  const auto problem = prepared.problem();
  const auto dest = ccf::join::CcfScheduler().schedule(problem);
  const auto join_flows = ccf::join::assignment_flows(
      prepared.residual, dest, prepared.initial_flows);

  // Workload (b): one wide heavy-tailed shuffle at rack granularity,
  // blown up onto hosts (rack r -> host r*hosts).
  ccf::util::Pcg32 rng(
      ccf::util::derive_seed(static_cast<std::uint64_t>(args.get_int("seed")), 95),
      95);
  ccf::net::SyntheticTraceOptions topts;
  topts.racks = racks;
  topts.coflows = 1;
  topts.heavy_fraction = 1.0;
  topts.heavy_mb_min = 20e3;
  topts.heavy_mb_max = 120e3;
  const auto trace = ccf::net::generate_synthetic_trace(topts, rng);
  const auto rack_specs = ccf::net::to_coflow_specs(trace);
  // Blow the rack-level matrix up onto hosts: each rack pair's volume is
  // split across `hosts` host pairs with heavy-tailed (Zipf) shares, like a
  // skewed reducer distribution — a few fat flows dominate each pair.
  ccf::net::FlowMatrix shuffle(nodes);
  const auto shares = ccf::util::zipf_weights(hosts, 1.5);
  for (std::size_t i = 0; i < racks; ++i) {
    for (std::size_t j = 0; j < racks; ++j) {
      if (i == j) continue;
      const double volume = rack_specs[0].flows.volume(i, j);
      if (volume <= 0.0) continue;
      for (std::size_t s = 0; s < hosts; ++s) {
        const auto src = i * hosts + rng.bounded(static_cast<std::uint32_t>(hosts));
        const auto dst = j * hosts + rng.bounded(static_cast<std::uint32_t>(hosts));
        if (src != dst) shuffle.add(src, dst, volume * shares[s]);
      }
    }
  }

  std::cout << "Routing extension: " << racks << " racks x " << hosts
            << " hosts, uplinks oversubscribed " << oversub << ":1\n"
            << "(a) CCF join coflow: "
            << ccf::util::format_bytes(join_flows.traffic())
            << "   (b) heavy-tailed shuffle: "
            << ccf::util::format_bytes(shuffle.traffic()) << "\n\n";

  ccf::util::Table t({"spines", "(a) ECMP", "(a) greedy", "(a) gain",
                      "(b) ECMP", "(b) greedy", "(b) gain"});
  for (const auto spines : args.get_int_sweep("spines")) {
    const auto topo = ccf::net::Topology::leaf_spine(
        racks, hosts, static_cast<std::size_t>(spines),
        ccf::net::Fabric::kDefaultPortRate, oversub);
    const RoutingRow a = run_point(topo, join_flows);
    const RoutingRow b = run_point(topo, shuffle);
    t.add_row({std::to_string(spines), ccf::util::format_seconds(a.ecmp_cct),
               ccf::util::format_seconds(a.greedy_cct),
               ccf::util::format_fixed(a.ecmp_cct / a.greedy_cct, 2) + "x",
               ccf::util::format_seconds(b.ecmp_cct),
               ccf::util::format_seconds(b.greedy_cct),
               ccf::util::format_fixed(b.ecmp_cct / b.greedy_cct, 2) + "x"});
  }
  t.print(std::cout);

  std::cout << "\nCo-optimized placement (a) equalizes rack loads, leaving "
               "little for routing to fix;\nlumpy shuffles (b) are where "
               "volume-aware routing (RAPIER's regime) pays off.\n";
  return 0;
}
