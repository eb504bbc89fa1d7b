// Concurrency property tests aimed directly at the paper's invariants:
// the frontier-queue coverage argument under optimistic access, level
// determinism of the nondeterministic engines, and option fuzzing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/frontier_queues.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "harness/verifier.hpp"
#include "runtime/rng.hpp"

namespace optibfs {
namespace {

// The coverage invariant behind §IV-A2: with the BFS_CL fetch discipline
// (relaxed global-queue pointer + relaxed fronts + clearing reads),
// every pushed element is consumed by AT LEAST one thread — duplicates
// allowed, losses forbidden. Exercised directly on FrontierQueues with
// real std::threads hammering a prepared level. It holds because the
// engines size a segment from `rear - front` and per-level constants
// only (BFSEngineBase::segment_size): threads that read the same front
// claim the same segment, so segments partition the queue and a thread
// that aborts on a slot another cleared never strands the rest of a
// longer segment. Random lengths break that and do lose slots.
TEST(OptimisticCoverage, EverySlotConsumedAtLeastOnce) {
  constexpr int kQueues = 4;
  constexpr vid_t kPerQueue = 2000;
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;

  for (int round = 0; round < kRounds; ++round) {
    FrontierQueues queues(kQueues, kQueues * kPerQueue);
    // Seed/consume once so the out side is clean, then fill a level.
    queues.seed(0, 0);
    (void)queues.consume_in(0, 0, true);
    vid_t next_value = 0;
    for (int q = 0; q < kQueues; ++q) {
      for (vid_t i = 0; i < kPerQueue; ++i) {
        queues.push_out(q, next_value++, 1);
      }
    }
    queues.swap_and_prepare();

    std::vector<std::atomic<std::uint8_t>> consumed(next_value);
    std::atomic<std::int32_t> global_queue{0};

    auto worker = [&] {
      for (;;) {
        int k = global_queue.load(std::memory_order_relaxed);
        if (k < 0) k = 0;
        std::int64_t front = 0, rear = 0;
        while (k < kQueues) {
          front = queues.in_front(k).load(std::memory_order_relaxed);
          rear = queues.in_rear(k);
          if (front < rear) break;
          ++k;
        }
        if (k >= kQueues) return;
        // BFS_CL's pick_segment with the default adaptive size.
        const std::int64_t len = std::min(
            std::clamp<std::int64_t>((rear - front) / (4 * kThreads), 1, 2048),
            rear - front);
        global_queue.store(k, std::memory_order_relaxed);
        queues.in_front(k).store(front + len, std::memory_order_relaxed);
        for (std::int64_t i = front; i < front + len; ++i) {
          const vid_t v = queues.consume_in(k, i, /*clear=*/true);
          if (v == kInvalidVertex) break;
          consumed[v].fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();

    for (vid_t v = 0; v < next_value; ++v) {
      ASSERT_GE(consumed[v].load(), 1u)
          << "round " << round << ": slot for " << v << " was lost";
    }
  }
}

// Level determinism: the engines are nondeterministic in parents and in
// schedule, but the level array must be bit-identical across runs and
// across engines (it equals the serial distances).
TEST(Determinism, LevelsIdenticalAcrossRunsAndEngines) {
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(11, 12, 31));
  BFSOptions options;
  options.num_threads = 8;
  std::vector<level_t> reference;
  for (const char* name : {"BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL",
                           "BFS_CL_H", "BFS_WSL_H", "PBFS", "HONG_QUEUE",
                           "DO_BFS"}) {
    auto engine = make_bfs(name, g, options);
    for (int run = 0; run < 3; ++run) {
      BFSResult result;
      engine->run(7, result);
      if (reference.empty()) {
        reference = result.level;
      } else {
        ASSERT_EQ(result.level, reference) << name << " run " << run;
      }
    }
  }
}

// Option fuzz: random but valid option combinations must always verify.
TEST(OptionFuzz, RandomOptionCombinationsStayCorrect) {
  const CsrGraph g = CsrGraph::from_edges(gen::power_law(1500, 12000, 2.2, 3));
  Xoshiro256 rng(2024);
  const auto algorithms = paper_algorithms();
  for (int trial = 0; trial < 30; ++trial) {
    BFSOptions options;
    options.num_threads = 1 + static_cast<int>(rng.next_below(10));
    options.segment_size = static_cast<std::int64_t>(rng.next_below(100));
    options.degree_threshold = static_cast<vid_t>(rng.next_below(200));
    options.steal_attempt_factor = 1 + static_cast<int>(rng.next_below(6));
    options.dl_pools = 1 + static_cast<int>(rng.next_below(12));
    options.phase2 = rng.next_below(2) == 0 ? Phase2Mode::kChunked
                                            : Phase2Mode::kStealing;
    options.clear_slots = rng.next_below(4) != 0;
    options.parent_claim_dedup = rng.next_below(2) == 0;
    options.numa_aware = rng.next_below(2) == 0;
    options.num_sockets = 1 + static_cast<int>(rng.next_below(4));
    options.direction_mode = rng.next_below(2) == 0
                                 ? DirectionMode::kTopDown
                                 : DirectionMode::kHybrid;
    options.alpha = static_cast<int>(rng.next_below(40));
    options.beta = static_cast<int>(rng.next_below(40));
    options.edge_balanced_segments = rng.next_below(2) == 0;
    options.seed = rng.next();
    const auto& algorithm =
        algorithms[static_cast<std::size_t>(rng.next_below(
            algorithms.size()))];
    auto engine = make_bfs(algorithm, g, options);
    const vid_t source = static_cast<vid_t>(rng.next_below(1500));
    BFSResult result;
    engine->run(source, result);
    const auto report = verify_against_serial(g, source, result);
    ASSERT_TRUE(report.ok)
        << "trial " << trial << " " << algorithm << " p="
        << options.num_threads << " s=" << options.segment_size
        << " clear=" << options.clear_slots << ": " << report.error;
  }
}

// Steal-block initialization at level start (the oversubscription fix)
// must let a thief drain a victim that never gets scheduled early: with
// segment_size 1 and many threads on a star graph, the hub's huge
// frontier lands in one queue and must still be fully consumed.
TEST(WorkStealing, UnscheduledVictimsQueuesAreStealable) {
  const CsrGraph g = CsrGraph::from_edges(gen::star(20000));
  BFSOptions options;
  options.num_threads = 12;
  options.segment_size = 1;
  for (const char* name : {"BFS_W", "BFS_WL"}) {
    auto engine = make_bfs(name, g, options);
    BFSResult result;
    engine->run(0, result);
    ASSERT_TRUE(verify_against_serial(g, 0, result).ok) << name;
    EXPECT_EQ(result.vertices_visited, 20000u);
  }
}

}  // namespace
}  // namespace optibfs
