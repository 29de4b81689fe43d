#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace ccf::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadFallbackIsSequential) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto compute = [](std::size_t threads) {
    std::vector<double> out(64, 0.0);
    parallel_for(64, [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t k = 1; k <= 1000; ++k) {
        acc += 1.0 / static_cast<double>(k + i);
      }
      out[i] = acc;
    }, threads);
    return out;
  };
  EXPECT_EQ(compute(1), compute(4));
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
  std::atomic<int> sum{0};
  parallel_for(3, [&](std::size_t i) { sum += static_cast<int>(i); }, 64);
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForChunked, CoversEveryIndexExactlyOnce) {
  for (const std::size_t grain : std::vector<std::size_t>{1, 3, 7, 100, 1000}) {
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(kCount, grain, [&](std::size_t b, std::size_t e) {
      ASSERT_LT(b, e);
      ASSERT_LE(e, kCount);
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ParallelForChunked, ChunkBoundariesAreGrainAligned) {
  // Chunk k must cover [k*grain, ...): callers rely on begin/grain as a
  // stable scratch-slot index. Also checks the ragged final chunk.
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(10, 4, [&](std::size_t b, std::size_t e) {
    const std::scoped_lock lock(m);
    chunks.emplace_back(b, e);
  });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{4, 8}));
  EXPECT_EQ(chunks[2], (std::pair<std::size_t, std::size_t>{8, 10}));
  EXPECT_EQ(parallel_chunk_count(10, 4), 3u);
  EXPECT_EQ(parallel_chunk_count(8, 4), 2u);
  EXPECT_EQ(parallel_chunk_count(0, 4), 0u);
}

TEST(ParallelForChunked, SingleThreadRunsChunksInOrder) {
  std::vector<std::size_t> begins;
  parallel_for(
      9, 2, [&](std::size_t b, std::size_t) { begins.push_back(b); }, 1);
  EXPECT_EQ(begins, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

TEST(ParallelForChunked, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(100, 8,
                            [](std::size_t b, std::size_t) {
                              if (b == 32) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelForChunked, RejectsZeroGrain) {
  EXPECT_THROW(parallel_for(10, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST(ParallelForChunked, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelReduce, SumsMatchSequentialFold) {
  std::vector<double> v(10'000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto run = [&](std::size_t grain, std::size_t threads) {
    return parallel_reduce(
        v.size(), grain, 0.0,
        [&](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [](double a, double b) { return a + b; }, threads);
  };
  // Chunks combine in ascending order, so the result is bit-identical for
  // any thread count at a fixed grain.
  const double seq = run(128, 1);
  EXPECT_EQ(run(128, 2), seq);
  EXPECT_EQ(run(128, 8), seq);
  EXPECT_EQ(run(128, 0), seq);
}

TEST(ParallelReduce, MinWithArgIsExactForAnyGrain) {
  // Min over doubles is order-independent, so even the grain must not change
  // the result; the (value, index) combine keeps the smallest index on ties.
  std::vector<double> v(5'000, 7.0);
  v[1234] = 1.5;
  v[4321] = 1.5;
  struct Best {
    double val = 1e300;
    std::size_t idx = 0;
  };
  for (const std::size_t grain : {1UL, 13UL, 512UL, 10'000UL}) {
    const Best best = parallel_reduce(
        v.size(), grain, Best{},
        [&](std::size_t b, std::size_t e) {
          Best acc;
          for (std::size_t i = b; i < e; ++i) {
            if (v[i] < acc.val) acc = Best{v[i], i};
          }
          return acc;
        },
        [](Best a, Best b) { return b.val < a.val ? b : a; });
    EXPECT_EQ(best.val, 1.5) << "grain " << grain;
    EXPECT_EQ(best.idx, 1234u) << "grain " << grain;
  }
}

TEST(ParallelReduce, ZeroCountReturnsIdentity) {
  const int r = parallel_reduce(
      0, 8, 42, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 42);
}

TEST(ParallelReduce, RejectsZeroGrain) {
  EXPECT_THROW(parallel_reduce(
                   10, 0, 0.0, [](std::size_t, std::size_t) { return 0.0; },
                   [](double a, double b) { return a + b; }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The persistent pool's contract (util/parallel.hpp header comment).

/// Distinct serial per OS thread that ever calls it: a thread created per
/// call shows up as a fresh serial even when the OS recycles thread ids.
std::size_t thread_serial() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t serial = next.fetch_add(1);
  return serial;
}

TEST(ParallelPool, NestedCallFromAWorkerRunsInline) {
  const std::size_t caller = thread_serial();
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<std::size_t> on_workers{0};
  std::atomic<bool> inline_everywhere{true};
  parallel_for(
      kOuter,
      [&](std::size_t o) {
        // Long enough that idle workers join before the caller drains it.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const std::size_t outer = thread_serial();
        std::vector<std::size_t> order;
        std::vector<std::size_t> serials;
        std::mutex m;
        parallel_for(
            kInner,
            [&](std::size_t i) {
              ++hits[o * kInner + i];
              const std::scoped_lock lock(m);
              order.push_back(i);
              serials.push_back(thread_serial());
            },
            4);
        if (outer == caller) return;  // the caller's own nested call may fan out
        ++on_workers;
        std::vector<std::size_t> ascending(kInner);
        std::iota(ascending.begin(), ascending.end(), 0);
        if (order != ascending ||
            std::any_of(serials.begin(), serials.end(),
                        [&](std::size_t s) { return s != outer; })) {
          inline_everywhere = false;
        }
      },
      4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_TRUE(inline_everywhere.load());
  if (effective_threads() > 1) EXPECT_GT(on_workers.load(), 0u);
}

TEST(ParallelPool, ConcurrentCallersGetExactResults) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCalls = 1000;
  std::vector<std::size_t> wrong(kCallers, 0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t call = 0; call < kCalls; ++call) {
        const std::size_t count = 1 + (call * 7 + c) % 97;
        std::vector<std::size_t> out(count, 0);
        parallel_for(count, [&](std::size_t i) { out[i] = i * (c + 1); });
        const std::size_t sum = parallel_reduce(
            count, 5, std::size_t{0},
            [&](std::size_t b, std::size_t e) {
              std::size_t s = 0;
              for (std::size_t i = b; i < e; ++i) s += out[i];
              return s;
            },
            [](std::size_t a, std::size_t b) { return a + b; });
        if (sum != (c + 1) * count * (count - 1) / 2) ++wrong[c];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong, std::vector<std::size_t>(kCallers, 0));
}

TEST(ParallelPool, ExceptionsStayWithTheirOwnJob) {
  constexpr std::size_t kCalls = 500;
  std::atomic<std::size_t> thrown{0};
  std::atomic<std::size_t> leaked{0};
  std::thread thrower([&] {
    for (std::size_t call = 0; call < kCalls; ++call) {
      try {
        parallel_for(64, [](std::size_t i) {
          if (i % 16 == 3) throw std::runtime_error("thrower");
        });
      } catch (const std::runtime_error&) {
        ++thrown;
      }
    }
  });
  std::thread clean([&] {
    for (std::size_t call = 0; call < kCalls; ++call) {
      try {
        std::atomic<std::size_t> visited{0};
        parallel_for(64, [&](std::size_t) { ++visited; });
        if (visited.load() != 64) ++leaked;
      } catch (...) {
        ++leaked;
      }
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(thrown.load(), kCalls);
  EXPECT_EQ(leaked.load(), 0u);
}

TEST(ParallelPool, OneCallStaysWithinItsThreadCap) {
  for (const std::size_t threads : {1UL, 2UL, 3UL}) {
    std::mutex m;
    std::vector<std::size_t> serials;
    parallel_for(
        256,
        [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          const std::scoped_lock lock(m);
          serials.push_back(thread_serial());
        },
        threads);
    std::sort(serials.begin(), serials.end());
    serials.erase(std::unique(serials.begin(), serials.end()), serials.end());
    EXPECT_LE(serials.size(), threads) << "threads " << threads;
  }
}

TEST(ParallelPool, RepeatedCallsCreateNoThreads) {
  std::mutex m;
  std::vector<std::size_t> serials;
  for (int call = 0; call < 10'000; ++call) {
    parallel_for(8, [&](std::size_t) {
      const std::size_t s = thread_serial();
      const std::scoped_lock lock(m);
      if (std::find(serials.begin(), serials.end(), s) == serials.end()) {
        serials.push_back(s);
      }
    });
  }
  EXPECT_LE(serials.size(), effective_threads());
}

TEST(ParallelReduce, PropagatesExceptions) {
  EXPECT_THROW(parallel_reduce(
                   1000, 8, 0.0,
                   [](std::size_t b, std::size_t) -> double {
                     if (b == 64) throw std::runtime_error("boom");
                     return 0.0;
                   },
                   [](double a, double b) { return a + b; }),
               std::runtime_error);
}

}  // namespace
}  // namespace ccf::util
