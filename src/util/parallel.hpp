// Minimal task parallelism for embarrassingly parallel work (CP.4: think in
// terms of tasks). Used by the benchmark harness to evaluate independent
// sweep points concurrently, by the simulator's flow-advance loop and
// next-event reduction, by the Engine's placement fan-out and by the
// optimizer fan-outs — each unit of work owns all of its state, so no
// synchronization beyond the index counter is needed.
//
// Every call runs on one persistent, process-wide pool, created on first use
// with hardware_concurrency - 1 workers; no call creates a thread. The
// calling thread takes part in its own job, so a call completes even when
// every worker is busy with other callers' jobs, and it waits only for units
// some thread has already claimed. Idle workers block on a condition
// variable. `threads` caps the participants of one call (caller included;
// 0 = hardware concurrency), and the pool size caps them too. A call made on
// a pool worker — a nested fan-out such as Engine -> placement -> B&B — runs
// inline on that worker, in ascending index order.
//
// The entry points are templates that capture the callable by reference and
// hand the backend a single raw function pointer + context pointer, so the
// hot path pays one indirect call per work unit instead of a std::function
// dispatch (and never heap-allocates a closure).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccf::util {

namespace detail {

using IndexFn = void (*)(void*, std::size_t);
using RangeFn = void (*)(void*, std::size_t, std::size_t);

/// Backend for the per-index overload: invokes fn(ctx, i) for i in
/// [0, count) across the pool. Defined in parallel.cpp.
void parallel_indices(std::size_t count, IndexFn fn, void* ctx,
                      std::size_t threads);

/// Backend for the chunked overloads: invokes fn(ctx, begin, end) once per
/// chunk of up to `grain` indices. Chunk k always covers
/// [k*grain, min((k+1)*grain, count)). Defined in parallel.cpp.
void parallel_ranges(std::size_t count, std::size_t grain, RangeFn fn,
                     void* ctx, std::size_t threads);

}  // namespace detail

/// Run fn(i) for every i in [0, count) on up to `threads` participating
/// threads (0 = hardware concurrency). Blocks until all iterations finish.
/// The first exception thrown by any iteration is rethrown on the calling
/// thread after every iteration has run. fn must be safe to invoke
/// concurrently for distinct i.
template <typename F>
  requires std::is_invocable_v<F&, std::size_t>
void parallel_for(std::size_t count, F&& fn, std::size_t threads = 0) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_indices(
      count,
      [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<std::remove_const_t<Fn>*>(std::addressof(fn)), threads);
}

/// Chunked variant: fn(begin, end) is invoked once per chunk of up to `grain`
/// consecutive indices, avoiding per-index dispatch on hot loops. Chunk k
/// always covers [k*grain, min((k+1)*grain, count)), so a caller may map
/// `begin / grain` to a stable per-chunk scratch slot. With one effective
/// thread, or on a pool worker, the chunks run sequentially in ascending
/// order. `grain` == 0 is invalid (throws std::invalid_argument). Exception
/// propagation matches the per-index overload: the first exception thrown by
/// any chunk is rethrown after every chunk has run.
template <typename F>
  requires std::is_invocable_v<F&, std::size_t, std::size_t>
void parallel_for(std::size_t count, std::size_t grain, F&& fn,
                  std::size_t threads = 0) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_ranges(
      count, grain,
      [](void* ctx, std::size_t begin, std::size_t end) {
        (*static_cast<Fn*>(ctx))(begin, end);
      },
      const_cast<std::remove_const_t<Fn>*>(std::addressof(fn)), threads);
}

/// Participants a parallel_for with `requested` threads asks for on
/// unbounded work: `requested`, or hardware concurrency when 0 (minimum 1).
/// The pool never runs one call on more than hardware concurrency threads.
/// Callers sizing a task fan-out (e.g. the branch-and-bound subtree split)
/// use this to know the width before submitting.
std::size_t effective_threads(std::size_t requested = 0) noexcept;

/// Number of chunks the chunked overload will execute: ceil(count / grain).
constexpr std::size_t parallel_chunk_count(std::size_t count,
                                           std::size_t grain) noexcept {
  return grain == 0 ? 0 : (count + grain - 1) / grain;
}

/// Deterministic chunked reduction: map(begin, end) -> T computes one
/// partial per chunk (in parallel, chunk boundaries as in the chunked
/// parallel_for), then the partials are combined *sequentially in ascending
/// chunk order* as acc = combine(acc, partial_k) starting from `identity`.
/// The combine order is therefore independent of thread count and schedule:
/// the result is bit-identical to the single-threaded left fold over chunks.
/// For order-insensitive monoids (min, max, argmin with explicit index
/// tie-breaks) this equals the plain sequential reduction over [0, count).
/// Returns `identity` when count == 0.
template <typename T, typename Map, typename Combine>
  requires std::is_invocable_r_v<T, Map&, std::size_t, std::size_t> &&
           std::is_invocable_r_v<T, Combine&, T, T>
T parallel_reduce(std::size_t count, std::size_t grain, T identity, Map&& map,
                  Combine&& combine, std::size_t threads = 0) {
  const std::size_t chunks = parallel_chunk_count(count, grain);
  if (chunks == 0) {
    if (grain == 0 && count > 0) {
      // Surface the misuse through the same path the chunked for takes.
      parallel_for(count, grain, [](std::size_t, std::size_t) {}, threads);
    }
    return identity;
  }
  if (chunks == 1) return combine(std::move(identity), map(0, count));
  std::vector<T> partials(chunks, identity);
  parallel_for(
      count, grain,
      [&](std::size_t begin, std::size_t end) {
        partials[begin / grain] = map(begin, end);
      },
      threads);
  T acc = std::move(identity);
  for (std::size_t k = 0; k < chunks; ++k) {
    acc = combine(std::move(acc), std::move(partials[k]));
  }
  return acc;
}

}  // namespace ccf::util
