#include "opt/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ccf::opt {

void AssignmentProblem::validate() const {
  if (!matrix) {
    throw std::invalid_argument("AssignmentProblem: null matrix");
  }
  if (!initial_egress.empty() && initial_egress.size() != matrix.nodes()) {
    throw std::invalid_argument("AssignmentProblem: initial_egress size");
  }
  if (!initial_ingress.empty() && initial_ingress.size() != matrix.nodes()) {
    throw std::invalid_argument("AssignmentProblem: initial_ingress size");
  }
}

PartitionStats::PartitionStats(const data::ChunkView& m)
    : total(m.partitions()),
      max(m.partitions()),
      second(m.partitions()),
      arg_max(m.partitions()) {
  for (std::size_t k = 0; k < total.size(); ++k) {
    // One pass: the sum in node order and the first maximum, as
    // ChunkView::partition_total and partition_max compute them.
    const std::span<const double> row = m.partition_row(k);
    double sum = 0.0, max1 = row[0], max2 = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) {
      sum += row[j];
      if (row[j] > max1) {
        max2 = max1;
        max1 = row[j];
        arg_max[k] = static_cast<std::uint32_t>(j);
      } else if (j > 0 && row[j] > max2) {
        max2 = row[j];
      }
    }
    total[k] = sum;
    max[k] = max1;
    second[k] = max2;
  }
}

double LoadProfile::makespan() const noexcept {
  double t = 0.0;
  for (const double e : egress) t = std::max(t, e);
  for (const double i : ingress) t = std::max(t, i);
  return t;
}

void LoadProfile::place(std::span<const double> row, double total,
                        std::size_t d) noexcept {
  // Two straight loops around d: the same adds as one loop that skips d,
  // without the branch.
  for (std::size_t i = 0; i < d; ++i) egress[i] += row[i];
  for (std::size_t i = d + 1; i < egress.size(); ++i) egress[i] += row[i];
  ingress[d] += total - row[d];
}

void LoadProfile::remove(std::span<const double> row, double total,
                         std::size_t d) noexcept {
  for (std::size_t i = 0; i < d; ++i) egress[i] -= row[i];
  for (std::size_t i = d + 1; i < egress.size(); ++i) egress[i] -= row[i];
  ingress[d] -= total - row[d];
}

void LoadProfile::save(std::size_t d, LoadProfile& undo) const {
  undo.egress.assign(egress.begin(), egress.end());
  undo.ingress.resize(ingress.size());
  undo.ingress[d] = ingress[d];
}

void LoadProfile::restore(std::size_t d, const LoadProfile& undo) noexcept {
  std::copy(undo.egress.begin(), undo.egress.end(), egress.begin());
  ingress[d] = undo.ingress[d];
}

LoadProfile initial_loads(const AssignmentProblem& problem) {
  const std::size_t n = problem.nodes();
  LoadProfile loads;
  loads.egress.resize(n);
  loads.ingress.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    loads.egress[i] = problem.initial_egress_at(i);
    loads.ingress[i] = problem.initial_ingress_at(i);
  }
  return loads;
}

LoadProfile evaluate(const AssignmentProblem& problem,
                     std::span<const std::uint32_t> dest) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  if (dest.size() != m.partitions()) {
    throw std::invalid_argument("evaluate: assignment size != partitions");
  }
  const std::size_t n = m.nodes();
  LoadProfile loads = initial_loads(problem);
  for (std::size_t k = 0; k < m.partitions(); ++k) {
    const std::uint32_t d = dest[k];
    if (d >= n) throw std::invalid_argument("evaluate: destination out of range");
    const std::span<const double> row = m.partition_row(k);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == d) continue;
      loads.egress[i] += row[i];
      loads.ingress[d] += row[i];
    }
  }
  return loads;
}

double makespan(const AssignmentProblem& problem,
                std::span<const std::uint32_t> dest) {
  return evaluate(problem, dest).makespan();
}

double traffic(const AssignmentProblem& problem,
               std::span<const std::uint32_t> dest) {
  const LoadProfile loads = evaluate(problem, dest);
  double t = 0.0;
  for (const double e : loads.egress) t += e;
  return t;
}

std::string to_lp_string(const AssignmentProblem& problem) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();
  std::ostringstream lp;
  lp.precision(17);
  lp << "\\ CCF co-optimization model (3), ICPP'17\n";
  lp << "Minimize\n obj: T\n";
  lp << "Subject To\n";
  // Egress constraints (3.1): for each node i,
  //   init_egress_i + sum_{k} sum_{j != i} h_{ik} x_{jk} <= T
  for (std::size_t i = 0; i < n; ++i) {
    lp << " egress_" << i << ":";
    for (std::size_t k = 0; k < p; ++k) {
      const double h = m.h(k, i);
      if (h == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        lp << " + " << h << " x_" << j << "_" << k;
      }
    }
    lp << " - T <= " << -problem.initial_egress_at(i) << "\n";
  }
  // Ingress constraints (3.2): for each node j,
  //   init_ingress_j + sum_k sum_{i != j} h_{ik} x_{jk} <= T
  for (std::size_t j = 0; j < n; ++j) {
    lp << " ingress_" << j << ":";
    for (std::size_t k = 0; k < p; ++k) {
      double coeff = 0.0;  // sum_{i != j} h_{ik}
      for (std::size_t i = 0; i < n; ++i) {
        if (i != j) coeff += m.h(k, i);
      }
      if (coeff != 0.0) lp << " + " << coeff << " x_" << j << "_" << k;
    }
    lp << " - T <= " << -problem.initial_ingress_at(j) << "\n";
  }
  // Assignment constraints (1.3): sum_j x_{jk} = 1.
  for (std::size_t k = 0; k < p; ++k) {
    lp << " assign_" << k << ":";
    for (std::size_t j = 0; j < n; ++j) {
      lp << (j ? " + " : " ") << "x_" << j << "_" << k;
    }
    lp << " = 1\n";
  }
  lp << "Binary\n";
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < p; ++k) lp << " x_" << j << "_" << k << "\n";
  }
  lp << "End\n";
  return lp.str();
}

Assignment greedy_reference(const AssignmentProblem& problem) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  const std::size_t p = m.partitions();

  // Line 1: sort partitions by the max chunk size, descending.
  std::vector<std::uint32_t> order(p);
  for (std::size_t k = 0; k < p; ++k) order[k] = static_cast<std::uint32_t>(k);
  std::stable_sort(order.begin(), order.end(),
                   [&m](std::uint32_t a, std::uint32_t b) {
                     return m.partition_max(a) > m.partition_max(b);
                   });

  // Lines 2-10: running loads; for each partition try every destination and
  // keep the one minimizing the resulting bottleneck T.
  std::vector<double> egress(n), ingress(n);
  for (std::size_t i = 0; i < n; ++i) {
    egress[i] = problem.initial_egress_at(i);
    ingress[i] = problem.initial_ingress_at(i);
  }
  Assignment dest(p, 0);
  for (const std::uint32_t k : order) {
    const double sk = m.partition_total(k);
    double best_t = 0.0;
    std::uint32_t best_d = 0;
    bool first = true;
    for (std::uint32_t d = 0; d < n; ++d) {
      double t = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double e = i == d ? egress[i] : egress[i] + m.h(k, i);
        const double in = i == d ? ingress[i] + (sk - m.h(k, d)) : ingress[i];
        t = std::max(t, std::max(e, in));
      }
      if (first || t < best_t) {
        best_t = t;
        best_d = d;
        first = false;
      }
    }
    dest[k] = best_d;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != best_d) egress[i] += m.h(k, i);
    }
    ingress[best_d] += sk - m.h(k, best_d);
  }
  return dest;
}

}  // namespace ccf::opt
