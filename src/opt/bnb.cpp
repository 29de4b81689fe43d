#include "opt/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "opt/bounds.hpp"
#include "opt/greedy.hpp"
#include "opt/local_search.hpp"
#include "util/parallel.hpp"

namespace ccf::opt {

namespace {

using Clock = std::chrono::steady_clock;

struct Child {
  double t;
  std::uint32_t d;
};

void sort_children(std::vector<Child>& children) {
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.t != b.t ? a.t < b.t : a.d < b.d;
            });
}

Clock::time_point deadline_from(double limit_s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(limit_s));
}

// ===========================================================================
// Reference solver — the seed's sequential search, kept verbatim as the
// equivalence anchor and bench baseline: averaging-only lower bound, O(n²)
// child rescan, per-node children allocation, greedy incumbent.
// ===========================================================================

struct RefSearch {
  const AssignmentProblem* problem;
  const PartitionStats* stats;
  const data::ChunkView* m;
  std::size_t n;
  std::vector<std::uint32_t> order;  // partitions, largest first
  std::vector<double> egress;
  std::vector<double> ingress;
  Assignment current;
  BnbResult best;
  BnbOptions options;
  Clock::time_point deadline;
  bool aborted = false;
};

/// The seed's partial bound: future volume spread over the n-port average.
double averaging_lower_bound(const AssignmentProblem& problem,
                             std::span<const double> egress,
                             std::span<const double> ingress,
                             std::span<const std::uint32_t> unassigned,
                             double current_T) {
  const data::ChunkView& m = problem.matrix;
  const std::size_t n = m.nodes();
  double future_min = 0.0;
  for (const std::uint32_t k : unassigned) {
    future_min += min_partition_traffic(m, k);
  }
  double ingress_total = 0.0;
  for (const double v : ingress) ingress_total += v;
  double egress_total = 0.0;
  for (const double v : egress) egress_total += v;
  const double spread_in = (ingress_total + future_min) / static_cast<double>(n);
  const double spread_out = (egress_total + future_min) / static_cast<double>(n);
  return std::max({current_T, spread_in, spread_out});
}

double profile_max(const RefSearch& ctx) {
  double t = 0.0;
  for (const double v : ctx.egress) t = std::max(t, v);
  for (const double v : ctx.ingress) t = std::max(t, v);
  return t;
}

void ref_dfs(RefSearch& ctx, std::size_t depth, double current_T) {
  if (ctx.aborted) return;
  ++ctx.best.nodes_explored;
  if (ctx.best.nodes_explored >= ctx.options.max_nodes ||
      (ctx.best.nodes_explored % kDeadlineCheckNodes == 0 &&
       Clock::now() > ctx.deadline)) {
    ctx.aborted = true;
    return;
  }
  if (depth == ctx.order.size()) {
    if (current_T < ctx.best.T) {
      ctx.best.T = current_T;
      ctx.best.dest = ctx.current;
    }
    return;
  }

  const std::span<const std::uint32_t> unassigned(ctx.order.data() + depth,
                                                  ctx.order.size() - depth);
  if (averaging_lower_bound(*ctx.problem, ctx.egress, ctx.ingress, unassigned,
                            current_T) >= ctx.best.T) {
    return;  // prune
  }

  const std::uint32_t k = ctx.order[depth];
  const double sk = ctx.stats->total[k];

  // Score every destination by a full O(n) rescan per candidate, then branch
  // best-first: good incumbents early tighten pruning.
  std::vector<Child> children;
  children.reserve(ctx.n);
  for (std::uint32_t d = 0; d < ctx.n; ++d) {
    double t = 0.0;
    for (std::size_t i = 0; i < ctx.n; ++i) {
      const double e = i == d ? ctx.egress[i] : ctx.egress[i] + ctx.m->h(k, i);
      const double in =
          i == d ? ctx.ingress[i] + (sk - ctx.m->h(k, d)) : ctx.ingress[i];
      t = std::max(t, std::max(e, in));
    }
    children.push_back({t, d});
  }
  sort_children(children);

  for (const Child& c : children) {
    if (c.t >= ctx.best.T) break;  // children sorted: the rest are no better
    const std::uint32_t d = c.d;
    // Apply.
    for (std::size_t i = 0; i < ctx.n; ++i) {
      if (i != d) ctx.egress[i] += ctx.m->h(k, i);
    }
    ctx.ingress[d] += sk - ctx.m->h(k, d);
    ctx.current[k] = d;

    ref_dfs(ctx, depth + 1, c.t);

    // Undo.
    for (std::size_t i = 0; i < ctx.n; ++i) {
      if (i != d) ctx.egress[i] -= ctx.m->h(k, i);
    }
    ctx.ingress[d] -= sk - ctx.m->h(k, d);
    if (ctx.aborted) return;
  }
}

BnbResult solve_reference(const AssignmentProblem& problem,
                          const PartitionStats& stats,
                          const BnbOptions& options, Assignment warm) {
  const data::ChunkView& m = problem.matrix;

  RefSearch ctx;
  ctx.problem = &problem;
  ctx.stats = &stats;
  ctx.m = &m;
  ctx.n = m.nodes();
  ctx.options = options;
  ctx.deadline = deadline_from(options.time_limit_s);
  ctx.order = descending_order(stats.total);

  LoadProfile loads = initial_loads(problem);
  ctx.egress = std::move(loads.egress);
  ctx.ingress = std::move(loads.ingress);
  ctx.current.assign(m.partitions(), 0);

  ctx.best.dest = std::move(warm);
  ctx.best.T = makespan(problem, ctx.best.dest);

  ref_dfs(ctx, 0, profile_max(ctx));

  ctx.best.optimal = !ctx.aborted;
  return ctx.best;
}

// ===========================================================================
// Parallel portfolio solver
// ===========================================================================

/// State shared by every subtree worker. The incumbent lives twice: the
/// atomic `best_T` is the lock-free read path for pruning (stale reads only
/// cost pruning efficiency, never correctness), the mutex serializes the
/// rare improvement writes together with the assignment they belong to.
struct SharedSearch {
  const AssignmentProblem* problem = nullptr;
  const PartitionStats* stats = nullptr;
  const data::ChunkView* m = nullptr;
  std::size_t n = 0;
  std::vector<std::uint32_t> order;  // partitions, largest first
  std::size_t max_nodes = 0;
  Clock::time_point deadline;

  // Read-only bound tables, built once per solve next to `stats`: the
  // strong-prune statics, pos[k] = k's index in `order`, and per-depth
  // suffixes over the unassigned tail — Σ rmin (water-fill volume),
  // Σ rsecond and per-port Σ h_{jk} (argmax-concentration and egress-drain
  // tests).
  PruneStatics statics;
  std::vector<std::size_t> pos;
  std::vector<double> suffix_rmin;      // [depth]
  std::vector<double> suffix_rsecond;   // [depth]
  std::vector<double> suffix_chunks;    // [depth * n + j]

  std::atomic<double> best_T{0.0};
  std::atomic<bool> aborted{false};
  std::atomic<std::size_t> nodes{0};
  std::mutex best_mutex;
  Assignment best_dest;
};

/// A prefix of destination choices along `order` whose subtree one task owns.
struct SubtreeTask {
  std::vector<std::uint32_t> prefix;
  double t = 0.0;  // bottleneck of the committed prefix loads
};

/// Per-worker scratch arena: load profiles, the current assignment, one
/// reusable children vector per depth (the seed allocated one per *node*),
/// and the bound scratch. Reused across subtree tasks via WorkerPool.
struct Worker {
  SharedSearch* sh;
  std::vector<double> egress, ingress;
  Assignment current;
  std::vector<std::vector<Child>> children;  // indexed by depth
  BoundScratch bounds;
  std::size_t unflushed = 0;       // nodes not yet added to sh->nodes
  std::size_t nodes_snapshot = 0;  // global count at the last flush

  explicit Worker(SharedSearch& s)
      : sh(&s),
        egress(s.n),
        ingress(s.n),
        current(s.order.size(), 0),
        children(s.order.size()) {
    for (auto& c : children) c.reserve(s.n);
  }
};

/// Checked-out/released around each subtree task so a worker's arena is
/// reused across tasks without binding tasks to threads (parallel_for hands
/// out indices dynamically for load balance).
class WorkerPool {
 public:
  explicit WorkerPool(SharedSearch& sh) : sh_(&sh) {}

  Worker& acquire() {
    const std::scoped_lock lock(mutex_);
    if (free_.empty()) {
      all_.push_back(std::make_unique<Worker>(*sh_));
      return *all_.back();
    }
    Worker* w = free_.back();
    free_.pop_back();
    return *w;
  }

  void release(Worker& w) {
    const std::scoped_lock lock(mutex_);
    free_.push_back(&w);
  }

  /// Add every worker's unflushed node count to the shared total.
  void flush_nodes() {
    const std::scoped_lock lock(mutex_);
    for (const auto& w : all_) {
      if (w->unflushed > 0) {
        sh_->nodes.fetch_add(w->unflushed, std::memory_order_relaxed);
        w->unflushed = 0;
      }
    }
  }

 private:
  SharedSearch* sh_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Worker>> all_;
  std::vector<Worker*> free_;
};

/// Per-node accounting: batches node counts into the shared atomic and
/// checks the node budget every node and the wall clock every
/// kDeadlineCheckNodes. Returns false once the search must stop.
bool tick(Worker& w) {
  SharedSearch& sh = *w.sh;
  ++w.unflushed;
  if (w.nodes_snapshot + w.unflushed >= sh.max_nodes ||
      w.unflushed >= kDeadlineCheckNodes) {
    w.nodes_snapshot =
        sh.nodes.fetch_add(w.unflushed, std::memory_order_relaxed) +
        w.unflushed;
    w.unflushed = 0;
    if (w.nodes_snapshot >= sh.max_nodes || Clock::now() > sh.deadline) {
      sh.aborted.store(true, std::memory_order_relaxed);
    }
  }
  return !sh.aborted.load(std::memory_order_relaxed);
}

void commit(SharedSearch& sh, const Assignment& dest, double t) {
  if (t >= sh.best_T.load(std::memory_order_relaxed)) return;
  const std::scoped_lock lock(sh.best_mutex);
  if (t < sh.best_T.load(std::memory_order_relaxed)) {
    sh.best_dest = dest;
    sh.best_T.store(t, std::memory_order_release);
  }
}

void apply_move(Worker& w, std::uint32_t k, std::uint32_t d) {
  const SharedSearch& sh = *w.sh;
  const std::span<const double> row = sh.m->partition_row(k);
  for (std::size_t i = 0; i < sh.n; ++i) {
    if (i != d) w.egress[i] += row[i];
  }
  w.ingress[d] += sh.stats->total[k] - row[d];
  w.current[k] = d;
}

void undo_move(Worker& w, std::uint32_t k, std::uint32_t d) {
  const SharedSearch& sh = *w.sh;
  const std::span<const double> row = sh.m->partition_row(k);
  for (std::size_t i = 0; i < sh.n; ++i) {
    if (i != d) w.egress[i] -= row[i];
  }
  w.ingress[d] -= sh.stats->total[k] - row[d];
}

/// Reset the worker's loads to the problem's initial profile and re-apply a
/// task prefix (choices along sh.order[0..prefix.size())).
void load_prefix(Worker& w, std::span<const std::uint32_t> prefix) {
  const SharedSearch& sh = *w.sh;
  for (std::size_t i = 0; i < sh.n; ++i) {
    w.egress[i] = sh.problem->initial_egress_at(i);
    w.ingress[i] = sh.problem->initial_ingress_at(i);
  }
  for (std::size_t j = 0; j < prefix.size(); ++j) {
    apply_move(w, sh.order[j], prefix[j]);
  }
}

/// Score all destinations of order[depth] into the worker's per-depth
/// scratch, best-first, using the shared O(n) top-2 kernel.
std::vector<Child>& score_children(Worker& w, std::size_t depth) {
  const SharedSearch& sh = *w.sh;
  const std::uint32_t k = sh.order[depth];
  const double sk = sh.stats->total[k];
  const std::span<const double> row = sh.m->partition_row(k);
  const Top2 eg = top2_sum(w.egress, row);
  const Top2 in = top2(w.ingress);
  std::vector<Child>& kids = w.children[depth];
  kids.clear();
  for (std::uint32_t d = 0; d < sh.n; ++d) {
    kids.push_back({placement_bottleneck(eg, in, w.egress[d], w.ingress[d],
                                         sk, row[d], d),
                    d});
  }
  sort_children(kids);
  return kids;
}

/// Assemble the strong-prune view of the worker's partial assignment at
/// `depth` from the shared suffix tables.
PrunePrefix prune_prefix(const SharedSearch& sh, const Worker& w,
                         std::size_t depth) {
  PrunePrefix v;
  v.egress = w.egress;
  v.ingress = w.ingress;
  v.order = sh.order;
  v.depth = depth;
  v.pos = sh.pos;
  v.future_rsecond = sh.suffix_rsecond[depth];
  v.future_chunks = std::span<const double>(
      sh.suffix_chunks.data() + depth * sh.n, sh.n);
  return v;
}

void dfs(Worker& w, std::size_t depth, double current_T) {
  SharedSearch& sh = *w.sh;
  if (!tick(w)) return;
  if (depth == sh.order.size()) {
    commit(sh, w.current, current_T);
    return;
  }

  const std::span<const std::uint32_t> unassigned(sh.order.data() + depth,
                                                  sh.order.size() - depth);
  const double best_T = sh.best_T.load(std::memory_order_relaxed);
  if (partial_lower_bound(*sh.problem, *sh.stats, w.egress, w.ingress,
                          unassigned, current_T, w.bounds,
                          sh.suffix_rmin[depth]) >= best_T) {
    return;  // prune
  }
  if (infeasible_below(*sh.problem, *sh.stats, sh.statics,
                       prune_prefix(sh, w, depth), best_T)) {
    return;  // no completion can beat the incumbent
  }

  const std::vector<Child>& kids = score_children(w, depth);
  const std::uint32_t k = sh.order[depth];
  for (const Child& c : kids) {
    // Re-read the incumbent per child: a sibling subtree may have lowered it.
    if (c.t >= sh.best_T.load(std::memory_order_relaxed)) break;
    apply_move(w, k, c.d);
    dfs(w, depth + 1, c.t);
    undo_move(w, k, c.d);
    if (sh.aborted.load(std::memory_order_relaxed)) return;
  }
}

void run_task(Worker& w, const SubtreeTask& task) {
  SharedSearch& sh = *w.sh;
  if (sh.aborted.load(std::memory_order_relaxed)) return;
  // Deadline check on task entry: with many queued tasks per thread this is
  // what keeps time_limit_s tight (workers inside a subtree re-check every
  // kDeadlineCheckNodes nodes).
  if (Clock::now() > sh.deadline) {
    sh.aborted.store(true, std::memory_order_relaxed);
    return;
  }
  if (task.t >= sh.best_T.load(std::memory_order_relaxed)) return;
  load_prefix(w, task.prefix);
  dfs(w, task.prefix.size(), task.t);
}

/// Expand the top of the search tree, level by level and best-first, into at
/// least `target` independent subtree tasks (more if the last level
/// overshoots; fewer if pruning closes the frontier). If the whole tree is
/// shallower than the fan-out, the frontier's complete assignments are
/// committed directly and no tasks remain.
std::vector<SubtreeTask> enumerate_tasks(SharedSearch& sh, Worker& w,
                                         std::size_t target) {
  std::vector<SubtreeTask> frontier;
  {
    double t0 = 0.0;
    load_prefix(w, {});
    for (const double v : w.egress) t0 = std::max(t0, v);
    for (const double v : w.ingress) t0 = std::max(t0, v);
    frontier.push_back({{}, t0});
  }

  std::size_t depth = 0;
  while (depth < sh.order.size() && frontier.size() < target &&
         !sh.aborted.load(std::memory_order_relaxed)) {
    std::vector<SubtreeTask> next;
    next.reserve(frontier.size() * sh.n);
    for (const SubtreeTask& task : frontier) {
      if (!tick(w)) break;
      load_prefix(w, task.prefix);
      const std::span<const std::uint32_t> unassigned(
          sh.order.data() + depth, sh.order.size() - depth);
      const double best_T = sh.best_T.load(std::memory_order_relaxed);
      if (partial_lower_bound(*sh.problem, *sh.stats, w.egress, w.ingress,
                              unassigned, task.t, w.bounds,
                              sh.suffix_rmin[depth]) >= best_T ||
          infeasible_below(*sh.problem, *sh.stats, sh.statics,
                           prune_prefix(sh, w, depth), best_T)) {
        continue;
      }
      for (const Child& c : score_children(w, depth)) {
        if (c.t >= sh.best_T.load(std::memory_order_relaxed)) break;
        SubtreeTask child{task.prefix, c.t};
        child.prefix.push_back(c.d);
        next.push_back(std::move(child));
      }
    }
    frontier = std::move(next);
    ++depth;
    if (frontier.empty()) return {};  // pruned or aborted: nothing to search
  }

  if (depth == sh.order.size()) {
    // Instance shallower than the fan-out: the frontier IS the candidate set.
    for (const SubtreeTask& task : frontier) {
      load_prefix(w, task.prefix);
      commit(sh, w.current, task.t);
    }
    return {};
  }

  // Best-first across workers: good subtrees early tighten everyone's bound.
  std::stable_sort(frontier.begin(), frontier.end(),
                   [](const SubtreeTask& a, const SubtreeTask& b) {
                     return a.t < b.t;
                   });
  return frontier;
}

BnbResult solve_parallel(const AssignmentProblem& problem,
                         const PartitionStats& stats,
                         const BnbOptions& options, Assignment warm) {
  const data::ChunkView& m = problem.matrix;
  const std::size_t threads = util::effective_threads(options.threads);

  SharedSearch sh;
  sh.problem = &problem;
  sh.stats = &stats;
  sh.m = &m;
  sh.n = m.nodes();
  sh.order = descending_order(stats.total);
  sh.max_nodes = options.max_nodes;
  sh.deadline = deadline_from(options.time_limit_s);

  const std::size_t p = sh.order.size();
  sh.statics = make_prune_statics(problem, stats);
  sh.pos.resize(p);
  for (std::size_t i = 0; i < p; ++i) sh.pos[sh.order[i]] = i;
  sh.suffix_rmin.assign(p + 1, 0.0);
  sh.suffix_rsecond.assign(p + 1, 0.0);
  sh.suffix_chunks.assign((p + 1) * sh.n, 0.0);
  for (std::size_t d = p; d-- > 0;) {
    const std::uint32_t k = sh.order[d];
    sh.suffix_rmin[d] = sh.suffix_rmin[d + 1] + stats.rmin(k);
    sh.suffix_rsecond[d] = sh.suffix_rsecond[d + 1] + stats.rsecond(k);
    const std::span<const double> row = m.partition_row(k);
    for (std::size_t j = 0; j < sh.n; ++j) {
      sh.suffix_chunks[d * sh.n + j] =
          sh.suffix_chunks[(d + 1) * sh.n + j] + row[j];
    }
  }
  sh.best_dest = std::move(warm);
  sh.best_T.store(makespan(problem, sh.best_dest),
                  std::memory_order_relaxed);

  BnbResult result;
  WorkerPool pool(sh);
  std::vector<SubtreeTask> tasks;
  if (Clock::now() > sh.deadline) {
    sh.aborted.store(true, std::memory_order_relaxed);
  } else {
    Worker& w0 = pool.acquire();
    tasks = enumerate_tasks(sh, w0, threads == 1 ? 1 : threads * 8);
    pool.release(w0);
  }
  result.subtree_tasks = tasks.size();

  if (!tasks.empty()) {
    util::parallel_for(
        tasks.size(),
        [&](std::size_t i) {
          Worker& w = pool.acquire();
          run_task(w, tasks[i]);
          pool.release(w);
        },
        threads);
  }
  pool.flush_nodes();

  result.dest = sh.best_dest;
  result.T = sh.best_T.load(std::memory_order_relaxed);
  result.nodes_explored = sh.nodes.load(std::memory_order_relaxed);
  result.optimal = !sh.aborted.load(std::memory_order_relaxed);
  return result;
}

}  // namespace

BnbResult solve_exact(const AssignmentProblem& problem, BnbOptions options) {
  problem.validate();
  const data::ChunkView& m = problem.matrix;
  const PartitionStats stats(m);

  // Incumbent: caller-provided warm start, else the GRASP portfolio
  // (parallel mode), else the reference greedy.
  Assignment warm;
  if (options.initial) {
    warm = *options.initial;
    if (warm.size() != m.partitions()) {
      throw std::invalid_argument("solve_exact: warm start size mismatch");
    }
  } else if (options.mode == BnbMode::kParallel && options.grasp_starts > 0) {
    GraspOptions gopt;
    gopt.starts = options.grasp_starts;
    gopt.seed = options.seed;
    gopt.threads = options.threads;
    warm = grasp(problem, stats, gopt).dest;
  } else {
    warm = greedy_reference(problem);
  }

  return options.mode == BnbMode::kReference
             ? solve_reference(problem, stats, options, std::move(warm))
             : solve_parallel(problem, stats, options, std::move(warm));
}

}  // namespace ccf::opt
