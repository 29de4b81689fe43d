#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace ccf::util {

std::size_t effective_threads(std::size_t requested) noexcept {
  if (requested == 0) {
    requested = std::thread::hardware_concurrency();
    if (requested == 0) requested = 1;
  }
  return requested;
}

namespace {

/// Set on the pool's own workers: a parallel call made there runs inline, so
/// a nested fan-out never queues behind the job that issued it.
thread_local bool t_pool_worker = false;

/// One parallel call. The caller and every helper that picked it up share
/// ownership, so a helper that wakes after the caller returned still holds a
/// live job. Nobody touches `fn`/`ctx` (which live in the caller's frame)
/// without first claiming a unit, and the caller returns only after every
/// claimed unit has finished.
class Job {
 public:
  Job(std::size_t units, std::size_t helpers, detail::IndexFn fn, void* ctx)
      : helpers_wanted(helpers), units_(units), remaining_(units), fn_(fn),
        ctx_(ctx) {}

  /// Claim and run units until none are left unclaimed. A throwing unit is
  /// recorded (first one wins) and the loop carries on, as before the pool.
  void work() {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= units_) return;
      try {
        fn_(ctx_, i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        remaining_.notify_all();
      }
    }
  }

  bool exhausted() const noexcept {
    return next_.load(std::memory_order_relaxed) >= units_;
  }

  /// Called once work() has returned on the caller, i.e. once every unit is
  /// claimed: blocks until the claimed units still running elsewhere finish,
  /// then rethrows the first exception any unit threw.
  void wait_and_rethrow() {
    for (std::size_t left = remaining_.load(std::memory_order_acquire);
         left != 0; left = remaining_.load(std::memory_order_acquire)) {
      remaining_.wait(left, std::memory_order_acquire);
    }
    if (first_error_) std::rethrow_exception(first_error_);
  }

  // Guarded by the pool mutex: how many workers may still join this job.
  std::size_t helpers_wanted;
  std::size_t helpers_joined = 0;

 private:
  const std::size_t units_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> remaining_;
  const detail::IndexFn fn_;
  void* const ctx_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;  // guarded by error_mutex_
};

/// The process-wide worker pool. Workers sleep on a condition variable
/// until a job is queued; a job leaves the queue once it has all the helpers
/// it asked for, once its units are all claimed, or when its caller is done.
class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    try {
      for (std::size_t t = 0; t < workers; ++t) {
        threads_.emplace_back([this] { worker_loop(); });
      }
    } catch (...) {
      stop();  // let the workers already started exit before they are joined
      throw;
    }
  }

  ~Pool() { stop(); }  // the jthreads join as threads_ is destroyed

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  std::size_t workers() const noexcept { return threads_.size(); }

  /// Run fn(ctx, i) for i in [0, units) on the calling thread plus at most
  /// `participants - 1` workers.
  void run(std::size_t units, std::size_t participants, detail::IndexFn fn,
           void* ctx) {
    const auto job = std::make_shared<Job>(units, participants - 1, fn, ctx);
    {
      const std::scoped_lock lock(mutex_);
      queue_.push_back(job);
    }
    for (std::size_t h = 1; h < participants; ++h) wake_.notify_one();
    job->work();
    {
      // No worker may pick the job up from here on; one that already has it
      // finds every unit claimed and drops it.
      const std::scoped_lock lock(mutex_);
      const auto it = std::find(queue_.begin(), queue_.end(), job);
      if (it != queue_.end()) queue_.erase(it);
    }
    job->wait_and_rethrow();
  }

 private:
  void stop() {
    {
      const std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
  }

  void worker_loop() {
    t_pool_worker = true;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock lock(mutex_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        job = queue_.front();
        if (++job->helpers_joined == job->helpers_wanted || job->exhausted()) {
          queue_.pop_front();
        }
      }
      job->work();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> queue_;  // guarded by mutex_
  bool stop_ = false;                       // guarded by mutex_
  // Last, so the workers are joined before the state they use goes away.
  std::vector<std::jthread> threads_;
};

/// Created on first use with one worker per hardware thread but the caller's.
Pool& pool() {
  static Pool instance(effective_threads() - 1);
  return instance;
}

std::size_t resolve_threads(std::size_t threads, std::size_t work_units) {
  return std::min(effective_threads(threads), work_units);
}

/// Run fn(ctx, unit) for every unit in [0, units) on up to `threads`
/// participants: the caller plus pool workers, or the caller alone (in
/// ascending order) when one participant remains or the caller is itself a
/// pool worker.
void drain(std::size_t units, std::size_t threads, detail::IndexFn fn,
           void* ctx) {
  if (threads > 1 && !t_pool_worker) {
    Pool& p = pool();
    threads = std::min(threads, p.workers() + 1);
    if (threads > 1) {
      p.run(units, threads, fn, ctx);
      return;
    }
  }
  for (std::size_t i = 0; i < units; ++i) fn(ctx, i);
}

}  // namespace

namespace detail {

void parallel_indices(std::size_t count, IndexFn fn, void* ctx,
                      std::size_t threads) {
  if (count == 0) return;
  drain(count, resolve_threads(threads, count), fn, ctx);
}

void parallel_ranges(std::size_t count, std::size_t grain, RangeFn fn,
                     void* ctx, std::size_t threads) {
  if (grain == 0) {
    throw std::invalid_argument("parallel_for: grain must be positive");
  }
  if (count == 0) return;
  struct Chunks {
    RangeFn fn;
    void* ctx;
    std::size_t count;
    std::size_t grain;
  } chunks{fn, ctx, count, grain};
  const std::size_t units = parallel_chunk_count(count, grain);
  drain(
      units, resolve_threads(threads, units),
      [](void* c, std::size_t k) {
        const Chunks& ch = *static_cast<const Chunks*>(c);
        const std::size_t begin = k * ch.grain;
        ch.fn(ch.ctx, begin, std::min(begin + ch.grain, ch.count));
      },
      &chunks);
}

}  // namespace detail

}  // namespace ccf::util
