#include "sched/ordering.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/flow.hpp"
#include "net/metrics.hpp"
#include "net/network.hpp"
#include "util/name_table.hpp"

namespace ccf::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Column view of a problem's demands, normalized to time units
/// (load / link capacity): per link, the (coflow, t) entries in ascending
/// coflow order — the iteration scans bottleneck columns, not rows.
struct NormalizedColumns {
  std::vector<std::uint32_t> off;     ///< link -> start, link_count()+1
  std::vector<std::uint32_t> coflow;  ///< per entry
  std::vector<double> t;              ///< normalized demand, > 0
};

/// Normalize the CSR loads to time units in `t` (parallel to demand_load).
std::vector<double> normalized_rows(const OrderingProblem& p) {
  std::vector<double> t(p.demand_load.size());
  for (std::size_t e = 0; e < t.size(); ++e) {
    t[e] = p.demand_load[e] / p.capacity[p.demand_link[e]];
  }
  return t;
}

NormalizedColumns transpose(const OrderingProblem& p,
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

/// Γ_c in time units: max over the coflow's links of normalized demand.
double row_gamma(const OrderingProblem& p, std::span<const double> t,
                 std::uint32_t c) {
  double g = 0.0;
  for (std::uint32_t e = p.row_offset[c]; e < p.row_offset[c + 1]; ++e) {
    if (t[e] > g) g = t[e];
  }
  return g;
}

/// Max tournament tree over per-port loads that stay in the caller's array.
/// Leaves are link ids; the array is padded to a power of two with -1.0, the
/// scan's starting value, which no load goes below. Every inner node holds
/// the id that wins its range: the right child only on a strictly larger
/// load, else the left. The left child always holds the smaller ids, so the
/// root is the first strict maximum a scan from link 0 finds: the largest
/// load, at the smallest id. A NaN load loses to every other, because the
/// scan's `>` never picks one. Built in O(L); after a load falls, lowered()
/// replays its leaf's path in O(log L) at most.
class PortTournament {
 public:
  explicit PortTournament(std::span<const double> load)
      : load_(load), leaves_(load.size()), node_(2 * load.size()) {
    for (std::size_t l = 0; l < leaves_; ++l) {
      node_[leaves_ + l] = static_cast<std::uint32_t>(l);
    }
    for (std::size_t i = leaves_ - 1; i > 0; --i) replay(i);
  }

  std::uint32_t top() const noexcept { return node_[1]; }

  /// Call after load[link] fell, stayed or became NaN; never after it rose.
  /// A node won by another link still is, and so is every node above it,
  /// so the replay stops at the first one.
  void lowered(std::uint32_t link) noexcept {
    for (std::size_t i = (leaves_ + link) / 2; i > 0 && node_[i] == link;
         i /= 2) {
      replay(i);
    }
  }

 private:
  void replay(std::size_t i) noexcept {
    const std::uint32_t left = node_[2 * i], right = node_[2 * i + 1];
    const double a = load_[left];
    node_[i] = load_[right] > a || std::isnan(a) ? right : left;
  }

  std::span<const double> load_;  ///< std::bit_ceil(L) entries
  std::size_t leaves_;
  std::vector<std::uint32_t> node_;  ///< [1, leaves_) inner, then the leaves
};

}  // namespace

void OrderingProblem::clear() {
  capacity.clear();
  weight.clear();
  row_offset.assign(1, 0);
  demand_link.clear();
  demand_load.clear();
}

void OrderingProblem::reset(std::span<const double> capacities) {
  // Validate before mutating: a throw leaves the problem as it was.
  for (const double cap : capacities) {
    if (!(cap > 0.0) || !std::isfinite(cap)) {
      throw std::invalid_argument(
          "OrderingProblem: link capacities must be finite and > 0");
    }
  }
  clear();
  capacity.assign(capacities.begin(), capacities.end());
}

void OrderingProblem::add_coflow(double w,
                                 std::span<const std::uint32_t> links,
                                 std::span<const double> loads) {
  if (w < 0.0 || !std::isfinite(w)) {
    throw std::invalid_argument("OrderingProblem: invalid coflow weight");
  }
  if (links.size() != loads.size()) {
    throw std::invalid_argument("OrderingProblem: links/loads size mismatch");
  }
  // Validate every entry before appending any: a throw leaves the problem
  // as it was.
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i] >= capacity.size()) {
      throw std::invalid_argument("OrderingProblem: link id out of range");
    }
    if (loads[i] < 0.0 || !std::isfinite(loads[i])) {
      throw std::invalid_argument("OrderingProblem: invalid demand load");
    }
  }
  if (row_offset.empty()) row_offset.assign(1, 0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (loads[i] == 0.0) continue;
    demand_link.push_back(links[i]);
    demand_load.push_back(loads[i]);
  }
  weight.push_back(w);
  row_offset.push_back(static_cast<std::uint32_t>(demand_link.size()));
}

namespace {

/// Compact a dense per-link load vector to the (links, loads) pair
/// OrderingProblem::add_coflow consumes.
void compact_loads(const std::vector<double>& loads,
                   std::vector<std::uint32_t>& links,
                   std::vector<double>& nonzero) {
  for (std::uint32_t l = 0; l < loads.size(); ++l) {
    if (loads[l] > 0.0) {
      links.push_back(l);
      nonzero.push_back(loads[l]);
    }
  }
}

}  // namespace

void OrderingProblem::add_coflow(double w, const net::Demand& demand,
                                 const net::Network& network) {
  if (network.link_count() != capacity.size()) {
    throw std::invalid_argument(
        "OrderingProblem: network does not match the problem's capacities");
  }
  const std::vector<double> loads = net::link_loads(demand, network);
  std::vector<std::uint32_t> links;
  std::vector<double> nonzero;
  compact_loads(loads, links, nonzero);
  add_coflow(w, links, nonzero);
}

void OrderingProblem::add_coflow(double w, const net::FlowMatrix& flows,
                                 const net::Network& network) {
  add_coflow(w, net::Demand::from_matrix(flows), network);
}

void sincronia_order(const OrderingProblem& problem,
                     std::vector<std::uint32_t>& out, double* dual_lb) {
  const std::size_t n = problem.coflow_count();
  const std::size_t links = problem.link_count();
  out.assign(n, 0);
  if (dual_lb) *dual_lb = 0.0;
  if (n == 0) return;

  const std::vector<double> t = normalized_rows(problem);
  const NormalizedColumns csc = transpose(problem, t);

  // Remaining load per port over the unscheduled set, maintained by
  // subtracting each scheduled coflow's row, padded with -1.0 to the
  // tournament's power of two. With no links, the lone padding leaf tops the
  // tree and every coflow takes the demandless exit below.
  std::vector<double> port(std::bit_ceil(links), -1.0);
  std::fill_n(port.begin(), links, 0.0);
  for (std::size_t e = 0; e < t.size(); ++e) port[problem.demand_link[e]] += t[e];
  PortTournament tree(port);

  std::vector<double> w(problem.weight);  // scaled weights w̃
  std::vector<std::uint8_t> done(n, 0);
  double dual = 0.0;
  std::size_t k = n;  // next position to fill, from the back
  while (k > 0) {
    // Bottleneck port: most remaining load; smallest link id on ties.
    const std::uint32_t b = tree.top();
    if (!(port[b] > 0.0)) {
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
      tree.lowered(b);
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
    // Schedule a last among the unscheduled and take its load off the ports
    // (t >= 0, so every port it touches falls or stays).
    for (std::uint32_t e = problem.row_offset[a]; e < problem.row_offset[a + 1];
         ++e) {
      const std::uint32_t l = problem.demand_link[e];
      double& pl = port[l];
      pl -= t[e];
      if (pl < 0.0) pl = 0.0;
      tree.lowered(l);
    }
    done[a] = 1;
    out[--k] = a;
  }
  if (dual_lb) *dual_lb = dual;
}

void lp_order(const OrderingProblem& problem, std::vector<std::uint32_t>& out) {
  const std::size_t n = problem.coflow_count();
  const std::size_t links = problem.link_count();
  out.resize(n);
  for (std::uint32_t c = 0; c < n; ++c) out[c] = c;
  if (n == 0) return;

  const std::vector<double> t = normalized_rows(problem);

  // WSPT priority on the coflow's own bottleneck time Γ_c: weight per unit
  // of processing, the greedy packing's admission order.
  std::vector<double> gamma(n, 0.0);
  std::vector<double> priority(n, kInf);  // demandless coflows pack first
  double tau_min = kInf;
  for (std::uint32_t c = 0; c < n; ++c) {
    gamma[c] = row_gamma(problem, t, c);
    if (gamma[c] > 0.0) {
      priority[c] = problem.weight[c] / gamma[c];
      if (gamma[c] < tau_min) tau_min = gamma[c];
    }
  }
  std::vector<std::uint32_t> pack(out);
  std::sort(pack.begin(), pack.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (priority[a] != priority[b]) return priority[a] > priority[b];
    if (gamma[a] != gamma[b]) return gamma[a] < gamma[b];
    return a < b;
  });

  // Horizon: no port carries more than H time units of demand, so geometric
  // intervals up to >= 2H leave room for every coflow even with cross-port
  // fragmentation (capped as a runaway guard).
  double horizon = 0.0;
  {
    std::vector<double> port(links, 0.0);
    for (std::size_t e = 0; e < t.size(); ++e) {
      port[problem.demand_link[e]] += t[e];
    }
    for (const double pl : port) horizon = std::max(horizon, pl);
  }
  std::vector<double> frac_completion(n, 0.0);
  std::vector<double> remaining(n, 1.0);
  if (horizon > 0.0) {
    std::vector<double> residual(links);
    double start = 0.0, end = tau_min;
    for (int interval = 0; interval < 64; ++interval) {
      const double len = end - start;
      residual.assign(links, len);
      bool all_done = true;
      for (const std::uint32_t c : pack) {
        if (remaining[c] <= 0.0) continue;
        // Largest fraction of c that fits in this interval on every link.
        double f = remaining[c];
        for (std::uint32_t e = problem.row_offset[c];
             e < problem.row_offset[c + 1]; ++e) {
          f = std::min(f, residual[problem.demand_link[e]] / t[e]);
        }
        if (f > 1e-12) {
          for (std::uint32_t e = problem.row_offset[c];
               e < problem.row_offset[c + 1]; ++e) {
            double& r = residual[problem.demand_link[e]];
            r -= f * t[e];
            if (r < 0.0) r = 0.0;
          }
          frac_completion[c] += f * end;
          remaining[c] -= f;
          if (remaining[c] < 1e-12) remaining[c] = 0.0;
        }
        if (remaining[c] > 0.0) all_done = false;
      }
      if (all_done || start >= 2.0 * horizon) break;
      start = end;
      end *= 2.0;
    }
  }
  for (std::uint32_t c = 0; c < n; ++c) {
    // Anything the capped packing left over completes past the horizon.
    if (remaining[c] > 0.0) frac_completion[c] += remaining[c] * 4.0 * horizon;
  }

  // List-rounding: order by fractional completion time.
  std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (frac_completion[a] != frac_completion[b]) {
      return frac_completion[a] < frac_completion[b];
    }
    if (priority[a] != priority[b]) return priority[a] > priority[b];
    return a < b;
  });
}

OrderingLowerBound ordering_lower_bound(const OrderingProblem& problem) {
  OrderingLowerBound lb;
  std::vector<std::uint32_t> tmp;
  sincronia_order(problem, tmp, &lb.dual);

  const std::vector<double> t = normalized_rows(problem);
  for (std::uint32_t c = 0; c < problem.coflow_count(); ++c) {
    lb.isolation += problem.weight[c] * row_gamma(problem, t, c);
  }

  // Per-port single-machine relaxation: Smith's rule (weight/time
  // descending) minimizes Σ w·completion on one machine, and every schedule
  // must push each port's demands through at unit (normalized) rate.
  const NormalizedColumns csc = transpose(problem, t);
  std::vector<std::uint32_t> jobs;
  for (std::size_t l = 0; l < problem.link_count(); ++l) {
    jobs.clear();
    for (std::uint32_t e = csc.off[l]; e < csc.off[l + 1]; ++e) {
      jobs.push_back(e);
    }
    std::sort(jobs.begin(), jobs.end(), [&](std::uint32_t x, std::uint32_t y) {
      const double rx = problem.weight[csc.coflow[x]] / csc.t[x];
      const double ry = problem.weight[csc.coflow[y]] / csc.t[y];
      if (rx != ry) return rx > ry;
      return csc.coflow[x] < csc.coflow[y];
    });
    double clock = 0.0, bound = 0.0;
    for (const std::uint32_t e : jobs) {
      clock += csc.t[e];
      bound += problem.weight[csc.coflow[e]] * clock;
    }
    if (bound > lb.wspt) lb.wspt = bound;
  }
  return lb;
}

namespace {

class SincroniaPolicy final : public OrderingPolicy {
 public:
  std::string name() const override { return "sincronia"; }
  void order(const OrderingProblem& problem,
             std::vector<std::uint32_t>& out) const override {
    sincronia_order(problem, out);
  }
};

class LpOrderPolicy final : public OrderingPolicy {
 public:
  std::string name() const override { return "lp-order"; }
  void order(const OrderingProblem& problem,
             std::vector<std::uint32_t>& out) const override {
    lp_order(problem, out);
  }
};

/// The permutation-respecting decorator (see ordering.hpp). Follows the
/// incremental-allocation protocol of net/varys.cpp, but the cached product
/// is the whole permutation, not per-coflow keys: σ is recomputed only when
/// the schedulable membership changed (ctx.order_valid false after a rebind
/// or cache reset, or a non-empty dirty list after arrival / completion /
/// rejection). Progress inside a stable membership never reorders, which is
/// exactly the "fixed order" the approximation guarantee composes with.
class OrderedAllocator final : public net::RateAllocator {
 public:
  OrderedAllocator(std::unique_ptr<OrderingPolicy> policy, OrderedDrain drain)
      : policy_(std::move(policy)), drain_(drain) {}

  std::string name() const override { return policy_->name(); }

  void allocate(net::AllocatorContext& ctx, const net::ActiveFlows& flows,
                std::span<net::CoflowState> coflows, double) override {
    ctx.group_by_coflow(flows);
    const auto sched = ctx.schedulable(coflows);
    if (!ctx.order_valid || !ctx.dirty().empty()) {
      recompute_order(ctx, flows, coflows, sched);
    }
    ctx.clear_dirty();

    const std::span<double> residual = ctx.reset_residual();
    if (drain_ == OrderedDrain::kMadd) {
      ctx.set_min_dt(
          net::detail::madd_sequential(flows, ctx.order, ctx, residual));
    } else {
      double min_dt = net::AllocatorContext::kInfDt;
      for (const std::uint32_t c : ctx.order) {
        const double dt =
            net::detail::maxmin_fill(flows, ctx.members(c), ctx, residual);
        ctx.coflow_dt[c] = dt;
        if (dt < min_dt) min_dt = dt;
      }
      ctx.set_min_dt(min_dt);
    }
  }

 private:
  void recompute_order(net::AllocatorContext& ctx,
                       const net::ActiveFlows& flows,
                       std::span<const net::CoflowState> coflows,
                       std::span<const std::uint32_t> sched) {
    // Canonical instance: schedulable ids ascending (the maintained set is
    // unordered), per-coflow remaining load aggregated per link via a dense
    // accumulator with a touched list — no per-call clear of the full lane.
    ids_.assign(sched.begin(), sched.end());
    std::sort(ids_.begin(), ids_.end());
    problem_.reset(ctx.capacities());
    if (acc_.size() != ctx.link_count()) acc_.assign(ctx.link_count(), 0.0);
    for (const std::uint32_t c : ids_) {
      touched_.clear();
      for (const std::uint32_t pos : ctx.members(c)) {
        const double remaining = flows.remaining[pos];
        for (const net::Network::LinkId l : flows.links(pos)) {
          if (acc_[l] == 0.0) touched_.push_back(l);
          acc_[l] += remaining;
        }
      }
      std::sort(touched_.begin(), touched_.end());
      loads_.clear();
      for (const std::uint32_t l : touched_) {
        loads_.push_back(acc_[l]);
        acc_[l] = 0.0;
      }
      problem_.add_coflow(coflows[c].weight, touched_, loads_);
    }
    policy_->order(problem_, perm_);
    ctx.order.clear();
    for (const std::uint32_t local : perm_) ctx.order.push_back(ids_[local]);
    ctx.order_valid = true;
  }

  std::unique_ptr<OrderingPolicy> policy_;
  OrderedDrain drain_;
  // Recompute scratch (never shrinks; the allocator owns it, not the ctx).
  OrderingProblem problem_;
  std::vector<std::uint32_t> ids_, perm_, touched_;
  std::vector<double> loads_, acc_;
};

template <class T>
constexpr auto make = &util::make_default<OrderingPolicy, T>;

constexpr auto kOrderings = util::make_name_table<OrderingPolicy>({
    {"sincronia", make<SincroniaPolicy>},
    {"lp-order", make<LpOrderPolicy>},
});

}  // namespace

std::span<const std::string_view> ordering_names() { return kOrderings.names; }

bool has_ordering(std::string_view name) {
  return std::ranges::find(kOrderings.names, name) != kOrderings.names.end();
}

std::unique_ptr<OrderingPolicy> make_ordering(const std::string& name) {
  if (auto ordering = kOrderings.make(name)) return ordering;
  throw std::invalid_argument("make_ordering: unknown ordering: " + name);
}

std::unique_ptr<net::RateAllocator> make_ordered_allocator(
    const std::string& ordering, OrderedDrain drain) {
  return std::make_unique<OrderedAllocator>(make_ordering(ordering), drain);
}

}  // namespace ccf::sched
