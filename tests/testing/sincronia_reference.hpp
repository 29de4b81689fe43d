// Sincronia's ordering as it was while it found each bottleneck port by a
// linear scan of every link: O(n · L) per call. sched::sincronia_order (the
// production ordering) must return the identical permutation and the
// bit-identical dual on every problem, because its bottleneck selection
// returns exactly the index this scan returns. Test support only: no
// production code calls it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sched/ordering.hpp"

namespace ccf::testing {

namespace sincronia_detail {

/// Column view of a problem's demands, normalized to time units
/// (load / link capacity): per link, the (coflow, t) entries in ascending
/// coflow order.
struct NormalizedColumns {
  std::vector<std::uint32_t> off;     ///< link -> start, link_count()+1
  std::vector<std::uint32_t> coflow;  ///< per entry
  std::vector<double> t;              ///< normalized demand, > 0
};

/// Normalize the CSR loads to time units in `t` (parallel to demand_load).
inline std::vector<double> normalized_rows(const sched::OrderingProblem& p) {
  std::vector<double> t(p.demand_load.size());
  for (std::size_t e = 0; e < t.size(); ++e) {
    t[e] = p.demand_load[e] / p.capacity[p.demand_link[e]];
  }
  return t;
}

inline NormalizedColumns transpose(const sched::OrderingProblem& p,
                                   std::span<const double> t) {
  NormalizedColumns csc;
  const std::size_t links = p.link_count();
  csc.off.assign(links + 1, 0);
  for (const std::uint32_t l : p.demand_link) ++csc.off[l + 1];
  for (std::size_t l = 0; l < links; ++l) csc.off[l + 1] += csc.off[l];
  csc.coflow.resize(p.demand_link.size());
  csc.t.resize(p.demand_link.size());
  std::vector<std::uint32_t> cursor(csc.off.begin(), csc.off.end() - 1);
  // Rows ascend by coflow, so each column lands in ascending coflow order —
  // the scans below tie-break towards the smallest index for free.
  for (std::uint32_t c = 0; c < p.coflow_count(); ++c) {
    for (std::uint32_t e = p.row_offset[c]; e < p.row_offset[c + 1]; ++e) {
      const std::uint32_t slot = cursor[p.demand_link[e]]++;
      csc.coflow[slot] = c;
      csc.t[slot] = t[e];
    }
  }
  return csc;
}

}  // namespace sincronia_detail

inline void sincronia_reference(const sched::OrderingProblem& problem,
                                std::vector<std::uint32_t>& out,
                                double* dual_lb = nullptr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = problem.coflow_count();
  const std::size_t links = problem.link_count();
  out.assign(n, 0);
  if (dual_lb) *dual_lb = 0.0;
  if (n == 0) return;

  const std::vector<double> t = sincronia_detail::normalized_rows(problem);
  const sincronia_detail::NormalizedColumns csc =
      sincronia_detail::transpose(problem, t);

  // Remaining load per port over the unscheduled set, maintained by
  // subtracting each scheduled coflow's row.
  std::vector<double> port(links, 0.0);
  for (std::size_t e = 0; e < t.size(); ++e) {
    port[problem.demand_link[e]] += t[e];
  }

  std::vector<double> w(problem.weight);  // scaled weights w̃
  std::vector<std::uint8_t> done(n, 0);
  double dual = 0.0;
  std::size_t k = n;  // next position to fill, from the back
  while (k > 0) {
    // Bottleneck port: most remaining load; smallest link id on ties.
    std::uint32_t b = 0;
    double load = -1.0;
    for (std::uint32_t l = 0; l < links; ++l) {
      if (port[l] > load) {
        load = port[l];
        b = l;
      }
    }
    if (!(load > 0.0)) {
      // Only demandless coflows remain: they finish instantly wherever they
      // land; put them first, ascending, to keep the permutation canonical.
      std::size_t pos = 0;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (!done[c]) out[pos++] = c;
      }
      break;
    }
    // Scan the bottleneck column: the last coflow is the one whose scaled
    // weight per unit of bottleneck demand is smallest (strict <, so the
    // smallest index wins ties). The same pass collects Σt and Σt² for the
    // dual's parallel-inequality value f_b(S) = (Σt² + (Σt)²) / 2.
    std::uint32_t a = std::numeric_limits<std::uint32_t>::max();
    double a_t = 0.0, ratio = kInf, sum = 0.0, sum_sq = 0.0;
    for (std::uint32_t e = csc.off[b]; e < csc.off[b + 1]; ++e) {
      const std::uint32_t c = csc.coflow[e];
      if (done[c]) continue;
      const double tc = csc.t[e];
      sum += tc;
      sum_sq += tc * tc;
      const double r = w[c] / tc;
      if (r < ratio) {
        ratio = r;
        a = c;
        a_t = tc;
      }
    }
    if (a == std::numeric_limits<std::uint32_t>::max()) {
      // Float residue made a fully drained port the argmax; retire it.
      port[b] = 0.0;
      continue;
    }
    const double alpha = w[a] / a_t;  // this iteration's dual variable
    dual += alpha * 0.5 * (sum_sq + sum * sum);
    // Charge α · t_{c,b} against every remaining coflow's scaled weight.
    // a itself lands exactly at 0 (mod rounding); the argmin choice keeps
    // everyone else non-negative.
    for (std::uint32_t e = csc.off[b]; e < csc.off[b + 1]; ++e) {
      const std::uint32_t c = csc.coflow[e];
      if (done[c]) continue;
      w[c] -= alpha * csc.t[e];
      if (w[c] < 0.0) w[c] = 0.0;
    }
    // Schedule a last among the unscheduled and take its load off the ports.
    for (std::uint32_t e = problem.row_offset[a]; e < problem.row_offset[a + 1];
         ++e) {
      double& pl = port[problem.demand_link[e]];
      pl -= t[e];
      if (pl < 0.0) pl = 0.0;
    }
    done[a] = 1;
    out[--k] = a;
  }
  if (dual_lb) *dual_lb = dual;
}

}  // namespace ccf::testing
