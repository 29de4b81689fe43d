#include "opt/bounds.hpp"

#include <algorithm>
#include <limits>

namespace ccf::opt {

Top2 top2(std::span<const double> v) noexcept {
  Top2 t;
  for (std::size_t i = 0; i < v.size(); ++i) t.feed(i, v[i]);
  return t;
}

Top2 top2_sum(std::span<const double> base,
              std::span<const double> add) noexcept {
  Top2 t;
  for (std::size_t i = 0; i < base.size(); ++i) t.feed(i, base[i] + add[i]);
  return t;
}

double min_partition_traffic(const data::ChunkView& m, std::size_t k) {
  return m.partition_total(k) - m.partition_max(k);
}

double root_lower_bound(const AssignmentProblem& problem,
                        const PartitionStats& stats) {
  const std::size_t n = problem.nodes();

  double unavoidable = 0.0;     // Σ_k minimum traffic
  double biggest_single = 0.0;  // the largest single unavoidable ingress
  for (std::size_t k = 0; k < problem.partitions(); ++k) {
    const double t = stats.rmin(k);
    unavoidable += t;
    biggest_single = std::max(biggest_single, t);
  }
  double init_total = 0.0;
  double init_max = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    init_total += problem.initial_ingress_at(i);
    init_max = std::max(init_max, std::max(problem.initial_ingress_at(i),
                                           problem.initial_egress_at(i)));
  }
  const double spread = (unavoidable + init_total) / static_cast<double>(n);
  return std::max({spread, biggest_single, init_max});
}

double water_fill_level(std::span<const double> loads, double volume,
                        std::vector<double>& scratch) {
  scratch.assign(loads.begin(), loads.end());
  std::sort(scratch.begin(), scratch.end());
  // Raise the water over the lowest-loaded ports until `volume` fits: with m
  // ports under water, level = (volume + Σ_{i<m} a_i) / m, valid once the
  // next port is above it. The first valid m gives the exact minimum level.
  double prefix = 0.0;
  for (std::size_t m = 1; m <= scratch.size(); ++m) {
    prefix += scratch[m - 1];
    const double level = (volume + prefix) / static_cast<double>(m);
    if (m == scratch.size() || level <= scratch[m]) return level;
  }
  return 0.0;  // unreachable for non-empty loads
}

double partial_lower_bound(const AssignmentProblem& problem,
                           const PartitionStats& stats,
                           std::span<const double> egress,
                           std::span<const double> ingress,
                           std::span<const std::uint32_t> unassigned,
                           double current_T, BoundScratch& scratch,
                           double future_min) {
  // Every byte of future traffic raises both total ingress and total egress;
  // water-filling packs that volume under the committed per-port loads, which
  // is never weaker than spreading it over the n-port average.
  double lb = std::max(current_T,
                       water_fill_level(ingress, future_min, scratch.levels));
  lb = std::max(lb, water_fill_level(egress, future_min, scratch.levels));

  // Exact best-case landing of the first (largest, per caller convention)
  // unassigned partition: whichever port it picks receives S_k − h_{jk}.
  if (!unassigned.empty()) {
    const std::uint32_t k = unassigned.front();
    const double sk = stats.total[k];
    const std::span<const double> row = problem.matrix.partition_row(k);
    double best_landing = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < ingress.size(); ++j) {
      best_landing = std::min(best_landing, ingress[j] + (sk - row[j]));
    }
    lb = std::max(lb, best_landing);
  }
  return lb;
}

double partial_lower_bound(const AssignmentProblem& problem,
                           std::span<const double> egress,
                           std::span<const double> ingress,
                           std::span<const std::uint32_t> unassigned,
                           double current_T) {
  const PartitionStats stats(problem.matrix);
  double future_min = 0.0;
  for (const std::uint32_t k : unassigned) future_min += stats.rmin(k);
  BoundScratch scratch;
  return partial_lower_bound(problem, stats, egress, ingress, unassigned,
                             current_T, scratch, future_min);
}

PruneStatics make_prune_statics(const AssignmentProblem& problem,
                                const PartitionStats& stats) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();

  PruneStatics s;
  s.argmax_lists.resize(n);
  s.drain_lists.resize(n);

  for (std::size_t k = 0; k < p; ++k) {
    const std::span<const double> row = m.partition_row(k);
    s.argmax_lists[stats.arg_max[k]].push_back(static_cast<std::uint32_t>(k));
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] > 0.0) {
        s.drain_lists[j].push_back(static_cast<std::uint32_t>(k));
      }
    }
  }

  for (std::size_t j = 0; j < n; ++j) {
    // Discount density (rsecond − rmin)/rmin descending, rmin == 0 first
    // (free capacity). Cross-multiplied to avoid dividing by zero.
    std::stable_sort(s.argmax_lists[j].begin(), s.argmax_lists[j].end(),
                     [&stats](std::uint32_t a, std::uint32_t b) {
                       const double ra = stats.rmin(a);
                       const double rb = stats.rmin(b);
                       const double ga = stats.rsecond(a) - ra;
                       const double gb = stats.rsecond(b) - rb;
                       if (ra == 0.0 || rb == 0.0) {
                         return ra == 0.0 && (rb > 0.0 || ga > gb);
                       }
                       return ga * rb > gb * ra;
                     });
    // Forced-ingress ratio (S_k − h)/h ascending == h/S_k descending-ish;
    // cross-multiplied: (S_a − h_a)·h_b < (S_b − h_b)·h_a.
    std::stable_sort(s.drain_lists[j].begin(), s.drain_lists[j].end(),
                     [&stats, &m, j](std::uint32_t a, std::uint32_t b) {
                       const double ha = m.h(a, j);
                       const double hb = m.h(b, j);
                       return (stats.total[a] - ha) * hb <
                              (stats.total[b] - hb) * ha;
                     });
  }
  return s;
}

bool infeasible_below(const AssignmentProblem& problem,
                      const PartitionStats& stats, const PruneStatics& s,
                      const PrunePrefix& v, double T) {
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = v.ingress.size();

  // --- Argmax concentration -----------------------------------------------
  double cap_total = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    cap_total += std::max(0.0, T - v.ingress[j]);
  }
  if (v.future_rsecond > cap_total) {
    // Cap the discount each port can hand out: partitions landing on their
    // argmax port consume rmin of its capacity and recover rsecond − rmin.
    // Fractional greedy upper-bounds the knapsack, keeping the prune valid.
    double discount = 0.0;
    for (std::size_t j = 0; j < n && v.future_rsecond - discount > cap_total;
         ++j) {
      double cap = std::max(0.0, T - v.ingress[j]);
      for (const std::uint32_t k : s.argmax_lists[j]) {
        if (v.pos[k] < v.depth) continue;  // already assigned
        const double rk = stats.rmin(k);
        const double gk = stats.rsecond(k) - rk;
        if (rk <= cap) {
          discount += gk;
          cap -= rk;
        } else {
          discount += gk * (cap / rk);
          break;  // capacity exhausted; later items need rk > 0 too
        }
      }
    }
    if (v.future_rsecond - discount > cap_total) return true;
  }

  // --- Egress drain --------------------------------------------------------
  for (std::size_t j = 0; j < n; ++j) {
    double need = v.egress[j] + v.future_chunks[j] - T;
    if (need <= 0.0) continue;  // port drains below T by itself
    // `need` bytes of unassigned chunks on j must land on j; take them in
    // cheapest forced-ingress order (fractional, so a valid lower bound).
    double forced = 0.0;
    bool drained = false;
    for (const std::uint32_t k : s.drain_lists[j]) {
      if (v.pos[k] < v.depth) continue;
      const double h = m.h(k, j);
      const double net = stats.total[k] - h;
      if (h >= need) {
        forced += net * (need / h);
        drained = true;
        break;
      }
      need -= h;
      forced += net;
      if (v.ingress[j] + forced > T) return true;  // and more is still needed
    }
    if (!drained) return true;  // all chunks on j together cannot drain it
    if (v.ingress[j] + forced > T) return true;
  }
  return false;
}

}  // namespace ccf::opt
