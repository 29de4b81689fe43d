// bench_ordering — the ordering-scheduler comparison sweep: weighted CCT vs
// the approximation certificate (sched/ordering.hpp, DESIGN.md §13).
//
// Each point is (topology x workload family), averaged over seeds: a batch
// of weighted coflows arrives at t=0, sched::ordering_lower_bound computes
// the certificate LB = max(dual, isolation, per-port WSPT) on the exact
// instance the simulator sees, and every policy drains the batch to a total
// weighted CCT. The reported ratio (mean wcct / mean LB) is what the
// ratio-verifying test (tests/sched/ordering_ratio_test.cpp) bounds: any
// schedule must sit at >= 1x, sincronia is guaranteed <= 4x its dual.
//
// Full mode sweeps a flat 32-port fabric and an oversubscribed (2:1) 8x4
// leaf-spine against shuffle / incast workloads and prints BENCH_sim.json
// rows per policy.
//
// --smoke gates the rack/shuffle point against --baseline BENCH_sim.json:
// sincronia's per-seed weighted CCT must stay within 4x of its per-seed
// dual (the guarantee as a perf gate), the mean weighted CCTs must
// reproduce the checked-in values (simulated time is deterministic), and
// the wall time must stay within 2x of the baseline past a 25 ms noise
// floor. Wired up as `perf_smoke_ordering`.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "net/fabric.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "sched/ordering.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

constexpr const char* kPolicies[] = {"sincronia", "lp-order", "varys",
                                     "aalo",      "madd",     "fair"};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr double kHostRate = 10.0;

struct Topo {
  std::string label;
  std::shared_ptr<const ccf::net::Network> network;
  std::size_t nodes;
};

std::vector<Topo> topologies() {
  std::vector<Topo> out;
  out.push_back(
      {"flat:32", std::make_shared<ccf::net::Fabric>(32, kHostRate), 32});
  const auto rack = ccf::net::Topology::leaf_spine(8, 4, 1, kHostRate, 2.0);
  out.push_back({"rack:8x4,oversub=2",
                 std::make_shared<ccf::net::RoutedTopology>(
                     rack, ccf::net::route_ecmp(*rack)),
                 32});
  return out;
}

/// One weighted batch: `count` coflows, all arriving at 0.
/// "shuffle": each coflow sprays 4-10 random flows of 2-40 port-seconds.
/// "incast": each coflow fans 3-8 senders into one hot receiver — the
/// port-contended regime where ordering matters most.
std::vector<ccf::net::CoflowSpec> make_batch(const std::string& family,
                                             std::size_t nodes,
                                             std::uint64_t seed) {
  ccf::util::Pcg32 rng(ccf::util::derive_seed(seed, 211), 211);
  std::vector<ccf::net::CoflowSpec> batch;
  const std::size_t count = 16;
  const auto pick_other = [&](std::size_t avoid) {
    std::size_t node = rng.bounded(static_cast<std::uint32_t>(nodes));
    if (node == avoid) node = (node + 1) % nodes;
    return node;
  };
  for (std::size_t c = 0; c < count; ++c) {
    ccf::net::FlowMatrix m(nodes);
    if (family == "incast") {
      const std::size_t dst = rng.bounded(static_cast<std::uint32_t>(nodes));
      const std::size_t senders = 3 + rng.bounded(6);
      for (std::size_t s = 0; s < senders; ++s) {
        m.add(pick_other(dst), dst, kHostRate * rng.uniform(1.0, 20.0));
      }
    } else {  // shuffle
      const std::size_t flows = 4 + rng.bounded(7);
      for (std::size_t f = 0; f < flows; ++f) {
        const std::size_t src = rng.bounded(static_cast<std::uint32_t>(nodes));
        m.add(src, pick_other(src), kHostRate * rng.uniform(2.0, 40.0));
      }
    }
    // Appended: GCC 12 reports a false -Wrestrict on "c" + std::to_string(c).
    ccf::net::CoflowSpec spec(std::string("c").append(std::to_string(c)),
                              0.0, std::move(m));
    spec.weight = rng.uniform(0.25, 4.0);
    batch.push_back(std::move(spec));
  }
  return batch;
}

ccf::sched::OrderingProblem problem_of(
    const Topo& topo, const std::vector<ccf::net::CoflowSpec>& batch) {
  ccf::sched::OrderingProblem p;
  std::vector<double> caps(topo.network->link_count());
  for (std::size_t l = 0; l < caps.size(); ++l) {
    caps[l] = topo.network->link_capacity(
        static_cast<ccf::net::Network::LinkId>(l));
  }
  p.reset(caps);
  for (const auto& spec : batch) {
    p.add_coflow(spec.weight, spec.flows, *topo.network);
  }
  return p;
}

struct PolicyPoint {
  double mean_wcct_s = 0.0;
  double mean_lb_s = 0.0;    ///< mean best() certificate across seeds
  double mean_dual_s = 0.0;  ///< mean dual (the 4x reference) across seeds
  double worst_vs_dual = 0.0;
  double wall_ms = 0.0;  ///< ordering + simulation, summed over seeds
};

PolicyPoint run_point(const Topo& topo, const std::string& family,
                      const std::string& policy) {
  PolicyPoint point;
  const auto start = std::chrono::steady_clock::now();
  for (const auto seed : kSeeds) {
    const auto batch = make_batch(family, topo.nodes, seed);
    const ccf::sched::OrderingLowerBound lb =
        ccf::sched::ordering_lower_bound(problem_of(topo, batch));
    ccf::net::Simulator sim(topo.network,
                            ccf::core::registry::make_allocator(policy));
    for (const auto& spec : batch) sim.add_coflow(spec);
    const double wcct = ccf::net::total_weighted_cct(sim.run());
    point.mean_wcct_s += wcct;
    point.mean_lb_s += lb.best();
    point.mean_dual_s += lb.dual;
    point.worst_vs_dual = std::max(point.worst_vs_dual, wcct / lb.dual);
  }
  const double n = static_cast<double>(std::size(kSeeds));
  point.mean_wcct_s /= n;
  point.mean_lb_s /= n;
  point.mean_dual_s /= n;
  point.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return point;
}

// --- baseline (BENCH_sim.json) lookup --------------------------------

double json_number(const std::string& line, const std::string& key) {
  const auto p = line.find("\"" + key + "\"");
  if (p == std::string::npos) return std::nan("");
  const auto colon = line.find(':', p);
  if (colon == std::string::npos) return std::nan("");
  try {
    return std::stod(line.substr(colon + 1));
  } catch (...) {
    return std::nan("");
  }
}

struct BaselineRow {
  double mean_wcct_s = std::nan("");
  double wall_ms = std::nan("");
};

BaselineRow load_baseline_row(const std::string& path,
                              const std::string& topology,
                              const std::string& family,
                              const std::string& policy) {
  BaselineRow row;
  std::ifstream in(path);
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.find("\"bench\": \"ordering_ratio\"") == std::string::npos ||
        line.find("\"" + topology + "\"") == std::string::npos ||
        line.find("\"" + family + "\"") == std::string::npos ||
        line.find("\"" + policy + "\"") == std::string::npos) {
      continue;
    }
    row.mean_wcct_s = json_number(line, "mean_wcct_s");
    row.wall_ms = json_number(line, "wall_ms");
  }
  return row;
}

constexpr const char* kGatedTopo = "rack:8x4,oversub=2";
constexpr const char* kGatedFamily = "shuffle";

int run_smoke(const std::string& baseline_path) {
  Topo gated;
  for (Topo& topo : topologies()) {
    if (topo.label == kGatedTopo) gated = std::move(topo);
  }
  const PolicyPoint sincronia = run_point(gated, kGatedFamily, "sincronia");
  const PolicyPoint madd = run_point(gated, kGatedFamily, "madd");

  bool ok = true;
  std::cout << "perf-smoke-ordering: " << kGatedTopo << " / " << kGatedFamily
            << "\n  sincronia mean wcct " << sincronia.mean_wcct_s
            << " s  (ratio " << sincronia.mean_wcct_s / sincronia.mean_lb_s
            << "x LB, worst " << sincronia.worst_vs_dual
            << "x dual)\n  madd      mean wcct " << madd.mean_wcct_s
            << " s  (ratio " << madd.mean_wcct_s / madd.mean_lb_s << "x LB)\n";
  // The approximation guarantee as a gate: every seed within 4x its dual.
  if (!(sincronia.worst_vs_dual <= 4.0)) {
    std::cerr << "perf-smoke-ordering: sincronia worst ratio "
              << sincronia.worst_vs_dual << "x exceeds the 4x guarantee\n";
    ok = false;
  }
  // Sanity on the certificate: no policy beats the lower bound.
  for (const PolicyPoint& point : {sincronia, madd}) {
    if (!(point.mean_wcct_s >= point.mean_lb_s * (1.0 - 1e-6))) {
      std::cerr << "perf-smoke-ordering: mean wcct " << point.mean_wcct_s
                << " s fell below the lower bound " << point.mean_lb_s
                << " s\n";
      ok = false;
    }
  }
  for (const auto& [policy, point] :
       {std::pair<std::string, const PolicyPoint&>{"sincronia", sincronia},
        {"madd", madd}}) {
    const BaselineRow base =
        load_baseline_row(baseline_path, kGatedTopo, kGatedFamily, policy);
    if (!std::isfinite(base.mean_wcct_s)) {
      std::cout << "  " << policy << ": no baseline row (not fatal)\n";
      continue;
    }
    // Simulated time is deterministic: any drift is a real behavior change.
    if (std::abs(point.mean_wcct_s - base.mean_wcct_s) >
        1e-6 * (1.0 + base.mean_wcct_s)) {
      std::cerr << "perf-smoke-ordering: " << policy << " mean wcct "
                << point.mean_wcct_s << " s drifted from checked-in "
                << base.mean_wcct_s << " s\n";
      ok = false;
    }
    if (std::isfinite(base.wall_ms) && point.wall_ms > 2.0 * base.wall_ms &&
        point.wall_ms - base.wall_ms > 25.0) {
      std::cerr << "perf-smoke-ordering: " << policy << " wall "
                << point.wall_ms << " ms regressed >2x vs checked-in "
                << base.wall_ms << " ms\n";
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "perf-smoke-ordering FAILED vs " << baseline_path << "\n";
    return 1;
  }
  std::cout << "perf-smoke-ordering passed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ccf::util::ArgParser args(
      "bench_ordering",
      "ordering schedulers vs the approximation certificate");
  args.add_flag("smoke", "false",
                "gate the rack/shuffle point against --baseline and exit");
  args.add_flag("baseline", "BENCH_sim.json",
                "checked-in baseline for --smoke");
  args.parse(argc, argv);

  if (args.get_bool("smoke")) return run_smoke(args.get("baseline"));

  ccf::util::Table t({"topology", "workload", "policy", "mean wcct",
                      "vs LB", "worst vs dual", "wall ms"});
  std::ostringstream json;
  // Enough digits that the smoke mode's determinism check (1e-6 relative)
  // can reproduce the checked-in weighted CCTs from the printed rows.
  json << std::setprecision(12);
  for (const Topo& topo : topologies()) {
    for (const char* family : {"shuffle", "incast"}) {
      for (const char* policy : kPolicies) {
        const PolicyPoint point = run_point(topo, family, policy);
        t.add_row({topo.label, family, policy,
                   ccf::util::format_seconds(point.mean_wcct_s),
                   ccf::util::format_fixed(
                       point.mean_wcct_s / point.mean_lb_s, 3) + "x",
                   ccf::util::format_fixed(point.worst_vs_dual, 3) + "x",
                   ccf::util::format_fixed(point.wall_ms, 1)});
        json << "    {\"bench\": \"ordering_ratio\", \"topology\": \""
             << topo.label << "\", \"workload\": \"" << family
             << "\", \"policy\": \"" << policy
             << "\", \"seeds\": " << std::size(kSeeds)
             << ", \"mean_wcct_s\": " << point.mean_wcct_s
             << ", \"mean_lb_s\": " << point.mean_lb_s
             << ", \"ratio\": "
             << ccf::util::format_fixed(
                    point.mean_wcct_s / point.mean_lb_s, 4)
             << ", \"wall_ms\": " << ccf::util::format_fixed(point.wall_ms, 1)
             << "},\n";
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nBENCH_sim.json rows:\n" << json.str();
  return 0;
}
