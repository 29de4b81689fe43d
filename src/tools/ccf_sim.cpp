// ccf_sim — simulate a coflow from a CSV flow list.
//
//   ccf_sim --flows flows.csv [--nodes N] [--allocator madd]
//           [--port-rate 125M]
//           [--topology SPEC [--routing ecmp|greedy|joint]]
//           [--faults faults.csv [--replace] [--replace-threshold X]]
//
// flows.csv rows: src,dst,bytes (optional header), streamed into the
// columnar net::Demand — nothing on the ingestion path is nodes². Prints the
// coflow completion time, the analytic optimum Γ, traffic, and bottleneck
// ports. --sparse-flows registers the coflow with the simulator as a
// SparseCoflowSpec flow list instead of a dense matrix (same results; the
// n²-free path for very wide fabrics).
// Without --topology the simulation runs on the flat non-blocking fabric.
// --topology runs it on a general multipath topology instead
// (net::TopologySpec grammar, e.g. "leafspine:racks=32,hosts=16,spines=4,
// oversub=4", "fattree:k=4", "waxman:nodes=24,seed=7"; the two-tier rack
// model is "leafspine:racks=R,hosts=H,spines=1,oversub=F"), with --routing
// choosing the path-selection policy the flow matrix is routed by.
// --faults injects a time,kind,id,side,factor schedule (net/io.hpp);
// --replace re-assigns flow remainders off ports degraded to at most
// --replace-threshold. The allocator list in --help is the live policy
// registry, not a hard-coded string.
#include <iostream>
#include <memory>

#include "core/registry.hpp"
#include "net/io.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "tools/common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  return ccf::tools::run_tool("ccf_sim", [&] {
    ccf::util::ArgParser args("ccf_sim", "Coflow simulator front end");
    args.add_flag("flows", "", "CSV of src,dst,bytes rows (required)");
    args.add_flag("nodes", "0", "node count (0 = infer from the CSV)");
    args.add_flag("allocator", "madd",
                  ccf::core::registry::allocator_name_list());
    ccf::tools::add_port_rate_flag(args);
    args.add_flag("topology", "",
                  "multipath topology spec: leafspine|fattree|waxman"
                  "[:key=value,...] (empty = flat non-blocking fabric)");
    args.add_flag("routing", "ecmp",
                  ccf::core::registry::routing_name_list());
    args.add_flag("faults", "", "CSV fault schedule: time,kind,id,side,factor");
    args.add_flag("replace", "false",
                  "re-place flow remainders off failed destination ports");
    args.add_flag("replace-threshold", "0",
                  "ingress scale at or below which --replace triggers");
    args.add_flag("sparse-flows", "false",
                  "register the coflow as a sparse flow list (n²-free)");
    args.parse(argc, argv);

    if (!ccf::tools::require_flag(args, "flows")) return 2;
    const double rate = ccf::tools::port_rate(args);
    ccf::net::Demand demand = ccf::tools::load_demand(args);

    std::shared_ptr<const ccf::net::Network> network;
    if (!args.get("topology").empty()) {
      ccf::net::TopologySpec spec =
          ccf::net::TopologySpec::parse(args.get("topology"));
      spec.host_rate = rate;
      const auto topology = ccf::net::make_topology(spec);
      if (topology->nodes() < demand.nodes()) {
        std::cerr << "error: topology has fewer nodes than the flow matrix\n";
        return 2;
      }
      // Re-interpret the triples over the topology width, then route them.
      demand.widen(topology->nodes());
      const auto policy =
          ccf::core::registry::make_routing(args.get("routing"));
      network = std::make_shared<const ccf::net::RoutedTopology>(
          topology, policy->choose(*topology, demand));
    } else {
      network =
          std::make_shared<const ccf::net::Fabric>(demand.nodes(), rate);
    }

    const double gamma = ccf::net::gamma_bound(demand, *network);
    const double traffic = demand.traffic();
    const std::size_t count = demand.flow_count();

    ccf::net::Simulator sim(
        network, ccf::core::registry::make_allocator(args.get("allocator")));
    const bool faulted = !args.get("faults").empty();
    if (faulted) {
      ccf::net::FaultOptions fault_options;
      fault_options.replace_on_failure = args.get_bool("replace");
      fault_options.replace_threshold = args.get_double("replace-threshold");
      sim.set_faults(ccf::net::fault_schedule_from_csv(args.get("faults")),
                     fault_options);
    }
    if (args.get_bool("sparse-flows")) {
      sim.add_coflow(
          ccf::net::SparseCoflowSpec("input", 0.0, demand.to_flows()));
    } else {
      sim.add_coflow(ccf::net::CoflowSpec("input", 0.0, demand.to_matrix()));
    }
    const ccf::net::SimReport report = sim.run();

    ccf::util::Table t({"metric", "value"});
    t.add_row({"flows", std::to_string(count)});
    t.add_row({"traffic", ccf::util::format_bytes(traffic)});
    t.add_row({"allocator", args.get("allocator")});
    t.add_row({"CCT", ccf::util::format_seconds(report.coflows[0].cct())});
    t.add_row({"optimal bound (Γ)", ccf::util::format_seconds(gamma)});
    t.add_row({"CCT / Γ", ccf::util::format_fixed(
                              gamma > 0 ? report.coflows[0].cct() / gamma : 1.0,
                              3)});
    t.add_row({"scheduling epochs", std::to_string(report.events)});
    if (faulted) {
      t.add_row({"fault events", std::to_string(report.fault_events)});
      t.add_row({"re-placed flows", std::to_string(report.replacements)});
    }
    t.print(std::cout);
    return 0;
  });
}
