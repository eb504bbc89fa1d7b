#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

#include "core/msbfs.hpp"
#include "graph/generators.hpp"
#include "runtime/fork_join_pool.hpp"
#include "runtime/reducer.hpp"

namespace optibfs {
namespace {

TEST(ForkJoinPool, RunExecutesRoot) {
  ForkJoinPool pool(4);
  std::atomic<int> value{0};
  pool.run([&] { value = 7; });
  EXPECT_EQ(value.load(), 7);
}

TEST(ForkJoinPool, RejectsNonPositiveWorkers) {
  EXPECT_THROW(ForkJoinPool(0), std::invalid_argument);
}

TEST(ForkJoinPool, CurrentWorkerIdInsideAndOutside) {
  ForkJoinPool pool(3);
  EXPECT_EQ(pool.current_worker_id(), -1);
  std::atomic<int> seen{-2};
  pool.run([&] { seen = pool.current_worker_id(); });
  EXPECT_GE(seen.load(), 0);
  EXPECT_LT(seen.load(), 3);
}

TEST(ForkJoinPool, ParallelForCoversRangeExactlyOnce) {
  ForkJoinPool pool(4);
  constexpr std::int64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 128, [&](std::int64_t lo, std::int64_t hi) {
    EXPECT_LE(hi - lo, 128);
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ForkJoinPool, ParallelForEmptyAndTinyRanges) {
  ForkJoinPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 10, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(0, 1, 10, [&](std::int64_t lo, std::int64_t hi) {
    total += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ForkJoinPool, NestedTaskGroups) {
  ForkJoinPool pool(4);
  std::atomic<int> leaves{0};
  // Recursive fork-join: a binary tree of depth 8 -> 256 leaves.
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    ForkJoinPool::TaskGroup group(pool);
    group.run([&, depth] { recurse(depth - 1); });
    recurse(depth - 1);
    group.wait();
  };
  pool.run([&] { recurse(8); });
  EXPECT_EQ(leaves.load(), 256);
}

TEST(ForkJoinPool, ManySmallRunsReuseWorkers) {
  ForkJoinPool pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 500; ++i) {
    pool.run([&] { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ForkJoinPool, ParallelReductionMatchesSerial) {
  ForkJoinPool pool(4);
  constexpr std::int64_t kN = 50000;
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(1, kN + 1, 64, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), kN * (kN + 1) / 2);
}

struct SumMonoid {
  struct View {
    long value = 0;
  };
  static void reduce(View& into, View&& from) { into.value += from.value; }
};

// Lost wake-up regression. Publishing a task (a release store of a
// deque's bottom) and then reading num_idle_, against a worker that
// announces idleness and then re-scans the deques, is a store-load
// pair that x86 may reorder: without seq_cst fences on both sides the
// worker can sleep on a task the publisher never wakes it for, and a
// two-worker team wave hangs with member 0 at the first barrier. The
// waves run on their own thread so a hang fails within the deadline
// instead of blocking the suite.
TEST(ForkJoinPool, BackToBackTwoWorkerWavesNeverLoseAWakeup) {
  constexpr int kWaves = 60000;
  const CsrGraph graph = CsrGraph::from_edges(gen::grid2d(8, 8));
  ForkJoinPool pool(2);
  std::atomic<int> completed{0};
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread waves([&] {
    BFSOptions options;
    options.num_threads = 2;
    MsBfsSession session(graph, options, pool);
    MsBfsResult out;
    const std::vector<vid_t> sources{0, 63};
    for (int w = 1; w <= kWaves; ++w) {
      session.run(sources, out);
      completed.store(w, std::memory_order_relaxed);
    }
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(120)) !=
      std::future_status::ready) {
    // The wave thread is stuck inside the pool: it can be neither
    // joined nor destroyed, so report and end the process.
    ADD_FAILURE() << "two-worker waves hung after "
                  << completed.load(std::memory_order_relaxed) << " of "
                  << kWaves;
    std::fflush(stdout);
    std::_Exit(1);
  }
  waves.join();
  EXPECT_EQ(completed.load(), kWaves);
}

TEST(Reducer, PerWorkerViewsSumCorrectly) {
  ForkJoinPool pool(4);
  Reducer<SumMonoid> reducer(pool);
  constexpr std::int64_t kN = 20000;
  pool.parallel_for(0, kN, 32, [&](std::int64_t lo, std::int64_t hi) {
    reducer.view().value += hi - lo;
  });
  EXPECT_EQ(reducer.reduce().value, kN);
  // reduce() resets the views.
  EXPECT_EQ(reducer.reduce().value, 0);
}

}  // namespace
}  // namespace optibfs
