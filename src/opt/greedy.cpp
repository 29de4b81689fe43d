#include "opt/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "opt/bounds.hpp"

namespace ccf::opt {
namespace {

/// Homogeneous ports: candidates are scored in bytes.
struct Bytes {
  double egress(std::size_t, double load) const noexcept { return load; }
  double ingress(std::size_t, double load) const noexcept { return load; }
};

/// Per-port capacities: candidates are scored in seconds.
struct Seconds {
  const double* egress_cap;
  const double* ingress_cap;
  double egress(std::size_t i, double load) const noexcept {
    return load / egress_cap[i];
  }
  double ingress(std::size_t i, double load) const noexcept {
    return load / ingress_cap[i];
  }
};

template <class Score>
void place(const AssignmentProblem& problem, const PartitionStats& stats,
           std::span<const std::uint32_t> order, LoadProfile& loads,
           Assignment& dest, const GreedyOptions& options, Score score) {
  const std::size_t n = problem.nodes();
  const std::vector<double>& egress = loads.egress;
  const std::vector<double>& ingress = loads.ingress;
  const auto allowed = [&options](std::uint32_t d) {
    return options.allowed.empty() || options.allowed[d] != 0;
  };

  struct Scored {
    double t;
    std::uint32_t d;
  };
  std::vector<Scored> rcl_best;  // the `rcl` best candidates, (t, d) ascending
  if (options.rng != nullptr) rcl_best.reserve(options.rcl);

  for (const std::uint32_t k : order) {
    const double sk = stats.total[k];
    const std::span<const double> row = problem.matrix.partition_row(k);

    // Placing k at d changes only two quantities against the global maxima:
    // d's egress stays put (it keeps its own chunk) and d's ingress gains
    // S_k - h_{dk}. So the top-2 of the egress profile with k's chunks added
    // and of the ingress profile score every candidate in O(1).
    Top2 eg, in;
    for (std::size_t i = 0; i < n; ++i) {
      eg.feed(i, score.egress(i, egress[i] + row[i]));
      in.feed(i, score.ingress(i, ingress[i]));
    }
    const auto bottleneck = [&](std::uint32_t d) {
      return std::max(
          std::max(eg.excluding(d), score.egress(d, egress[d])),
          std::max(in.excluding(d),
                   score.ingress(d, ingress[d] + (sk - row[d]))));
    };

    std::uint32_t best_d = 0;
    if (options.rng == nullptr) {
      double best_t = 0.0;
      bool first = true;
      for (std::uint32_t d = 0; d < n; ++d) {
        if (!allowed(d)) continue;
        const double t = bottleneck(d);
        if (first || t < best_t) {
          best_t = t;
          best_d = d;
          first = false;
        }
      }
    } else {
      rcl_best.clear();
      for (std::uint32_t d = 0; d < n; ++d) {
        if (!allowed(d)) continue;
        const Scored s{bottleneck(d), d};
        auto pos = std::find_if(rcl_best.begin(), rcl_best.end(),
                                [&s](const Scored& o) { return s.t < o.t; });
        if (rcl_best.size() < options.rcl) {
          rcl_best.insert(pos, s);
        } else if (pos != rcl_best.end()) {
          rcl_best.pop_back();
          rcl_best.insert(pos, s);
        }
      }
      best_d = rcl_best[options.rng->bounded(
                            static_cast<std::uint32_t>(rcl_best.size()))]
                   .d;
    }

    // Line 9: commit the destination and update the loads.
    dest[k] = best_d;
    loads.place(row, sk, best_d);
  }
}

}  // namespace

void sort_descending(std::span<std::uint32_t> order,
                     std::span<const double> key) {
  std::stable_sort(order.begin(), order.end(),
                   [key](std::uint32_t a, std::uint32_t b) {
                     return key[a] > key[b];
                   });
}

std::vector<std::uint32_t> descending_order(std::span<const double> key) {
  std::vector<std::uint32_t> order(key.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  sort_descending(order, key);
  return order;
}

void greedy_place(const AssignmentProblem& problem, const PartitionStats& stats,
                  std::span<const std::uint32_t> order, LoadProfile& loads,
                  Assignment& dest, const GreedyOptions& options) {
  if (options.egress_capacity.empty()) {
    place(problem, stats, order, loads, dest, options, Bytes{});
  } else {
    place(problem, stats, order, loads, dest, options,
          Seconds{options.egress_capacity.data(),
                  options.ingress_capacity.data()});
  }
}

Assignment greedy(const AssignmentProblem& problem, const PartitionStats& stats,
                  const GreedyOptions& options, std::span<const double> key) {
  LoadProfile loads = initial_loads(problem);
  Assignment dest(problem.partitions(), 0);
  greedy_place(problem, stats, descending_order(key.empty() ? stats.max : key),
               loads, dest, options);
  return dest;
}

}  // namespace ccf::opt
