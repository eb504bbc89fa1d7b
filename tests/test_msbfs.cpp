// Multi-source BFS (batched traversal extension).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "core/bfs_serial.hpp"
#include "core/msbfs.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/generators.hpp"
#include "harness/source_sampler.hpp"
#include "runtime/thread_team.hpp"

namespace optibfs {
namespace {

BFSOptions opts(int threads = 4) {
  BFSOptions options;
  options.num_threads = threads;
  return options;
}

void expect_result_matches_serial(const CsrGraph& g,
                                  const std::vector<vid_t>& sources,
                                  const MsBfsResult& batch) {
  ASSERT_EQ(batch.num_sources, static_cast<int>(sources.size()));
  ASSERT_EQ(batch.vertices_explored.size(), sources.size());
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const BFSResult reference = bfs_serial(g, sources[s]);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(batch.distance_of(static_cast<int>(s), v),
                reference.level[v])
          << "source index " << s << " (vertex " << sources[s]
          << "), target " << v;
    }
    // Per-pop convention: each (vertex, source) pair expands at most
    // once (the mask exchange arbitrates), so per-source pops must
    // equal the source's reachable-set size exactly — MS-BFS has no
    // per-source duplicate-exploration tax to blur this.
    EXPECT_EQ(batch.vertices_explored[s], reference.vertices_visited)
        << "source index " << s << " (vertex " << sources[s] << ")";
  }
}

void expect_matches_serial(const CsrGraph& g,
                           const std::vector<vid_t>& sources, int threads) {
  const MsBfsResult batch = multi_source_bfs(g, sources, opts(threads));
  expect_result_matches_serial(g, sources, batch);
}

TEST(MsBfs, SingleSourceEqualsPlainBfs) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(800, 5000, 3));
  expect_matches_serial(g, {5}, 4);
}

TEST(MsBfs, FullBatchOf64) {
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(10, 8, 9));
  const auto sources = sample_sources(g, 64, 11);
  expect_matches_serial(g, sources, 8);
}

TEST(MsBfs, DuplicateSourcesShareARow) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(50));
  expect_matches_serial(g, {7, 7, 30}, 4);
}

TEST(MsBfs, DisconnectedAndDeepGraphs) {
  EdgeList edges = gen::path(100);
  edges.ensure_vertices(120);  // 20 isolated vertices
  const CsrGraph g = CsrGraph::from_edges(edges);
  expect_matches_serial(g, {0, 50, 99, 110}, 8);
}

TEST(MsBfs, ScaleFreeBatch) {
  const CsrGraph g =
      CsrGraph::from_edges(gen::power_law(3000, 24000, 2.2, 7));
  const auto sources = sample_sources(g, 16, 3);
  expect_matches_serial(g, sources, 8);
}

TEST(MsBfs, RejectsBadBatches) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(10));
  EXPECT_THROW(multi_source_bfs(g, {}, opts()), std::invalid_argument);
  EXPECT_THROW(multi_source_bfs(g, std::vector<vid_t>(65, 0), opts()),
               std::invalid_argument);
  EXPECT_THROW(multi_source_bfs(g, {99}, opts()), std::out_of_range);
}

TEST(MsBfs, SessionReusesBuffersAcrossWaves) {
  // The batch-entry API the query service uses: one allocation, one
  // worker set, many waves. Wave N+1 must be exact even though it reuses
  // wave N's mask arrays and queue pool.
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(10, 8, 21));
  MsBfsSession session(g, opts(4));
  MsBfsResult out;

  const auto wave1 = sample_sources(g, 16, 5);
  session.run(wave1, out);
  expect_result_matches_serial(g, wave1, out);

  const auto wave2 = sample_sources(g, 64, 6);  // full width
  session.run(wave2, out);
  expect_result_matches_serial(g, wave2, out);

  const std::vector<vid_t> wave3{wave1.front()};  // width 1
  session.run(wave3, out);
  expect_result_matches_serial(g, wave3, out);

  EXPECT_THROW(session.run({}, out), std::invalid_argument);
  EXPECT_THROW(session.run({g.num_vertices()}, out), std::out_of_range);
}

TEST(MsBfs, SessionOnBorrowedPool) {
  // Several sessions sharing one borrowed ThreadTeam (the serving
  // replica's layout): the team outlives each session and is reused
  // serially between them.
  const CsrGraph g = CsrGraph::from_edges(gen::grid2d(24, 24));
  ThreadTeam team(4);
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    MsBfsSession session(g, opts(4), team);
    EXPECT_EQ(session.team_width(), 4);
    const auto sources = sample_sources(g, 8, seed);
    expect_result_matches_serial(g, sources, session.run(sources));
  }
}

TEST(MsBfs, SessionClampsTeamToPoolWidth) {
  // A borrowed team decides the session's width, whatever the options
  // ask for.
  const CsrGraph g = CsrGraph::from_edges(gen::path(64));
  ThreadTeam team(2);
  MsBfsSession session(g, opts(/*threads=*/8), team);
  EXPECT_EQ(session.team_width(), 2);
  expect_result_matches_serial(g, {0, 63}, session.run({0, 63}));
}

// Liveness regressions for team regions run back to back at four
// threads, the serving default: every member of a region barriers
// against the others, so a member that never starts hangs the region.
// The loop runs on a helper thread; if it makes no progress for 120 s,
// the test reports how far it got and ends the process (the helper can
// be neither joined nor destroyed). A slow but moving loop (a loaded
// machine) is not a stall. Kept out of sanitize_tests, whose slowdown
// would stretch the run.
void run_until_stalled(const char* what, int iterations,
                       const std::function<void()>& step) {
  std::atomic<int> completed{0};
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread loop([&] {
    for (int i = 1; i <= iterations; ++i) {
      step();
      completed.store(i, std::memory_order_relaxed);
    }
    done.set_value();
  });
  int seen = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (finished.wait_for(std::chrono::seconds(1)) !=
         std::future_status::ready) {
    const int now = completed.load(std::memory_order_relaxed);
    if (now != seen) {
      seen = now;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress >
               std::chrono::seconds(120)) {
      ADD_FAILURE() << what << " stalled after " << now << " of "
                    << iterations;
      std::fflush(stdout);
      std::_Exit(1);
    }
  }
  loop.join();
  EXPECT_EQ(completed.load(), iterations);
}

TEST(MsBfs, BackToBackFourThreadWavesNeverStall) {
  const CsrGraph graph = CsrGraph::from_edges(gen::grid2d(8, 8));
  MsBfsSession session(graph, opts(4));
  MsBfsResult out;
  const std::vector<vid_t> sources{0, 7, 56, 63};
  run_until_stalled("4-thread MS-BFS waves", 30000,
                     [&] { session.run(sources, out); });
  expect_result_matches_serial(graph, sources, out);
}

TEST(MsBfs, BackToBackFourThreadRecomputesNeverStall) {
  DynamicGraph dyn(std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::grid2d(8, 8))));
  const GraphSnapshot snap = dyn.snapshot();
  IncrementalBfsEngine::Config config;
  config.parallel_cutoff = 0;  // every recompute runs its team region
  config.bfs.num_threads = 4;
  IncrementalBfsEngine engine(config);
  std::vector<level_t> level;
  run_until_stalled("4-thread incremental recomputes", 30000,
                     [&] { engine.recompute(snap, 0, level); });
  EXPECT_EQ(level, bfs_serial(*dyn.base_csr(), 0).level);
}

TEST(MsBfs, SessionHonorsOptionPlumbing) {
  // Fixed segment size and the clearing-trick ablation ride through the
  // session untouched; results stay exact either way.
  const CsrGraph g = CsrGraph::from_edges(gen::power_law(2000, 16000, 2.2, 9));
  const auto sources = sample_sources(g, 12, 13);

  BFSOptions fixed = opts(4);
  fixed.segment_size = 3;
  MsBfsSession fixed_session(g, fixed);
  expect_result_matches_serial(g, sources, fixed_session.run(sources));

  BFSOptions no_clear = opts(4);
  no_clear.clear_slots = false;
  MsBfsSession ablated(g, no_clear);
  expect_result_matches_serial(g, sources, ablated.run(sources));
  // A second wave exercises the hard-reset path reuse needs when the
  // all-slots-0 invariant is forfeited.
  expect_result_matches_serial(g, sources, ablated.run(sources));
}

TEST(MsBfs, HybridWaveDirectionOptimizes) {
  // kHybrid flips dense-frontier levels to the owner-computes bottom-up
  // pull; distances, per-source pop counts, and cross-wave buffer reuse
  // must all stay exact through the direction switches.
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(12, 16, 33));
  BFSOptions hybrid = opts(4);
  hybrid.direction_mode = DirectionMode::kHybrid;
  MsBfsSession session(g, hybrid);
  const auto sources = sample_sources(g, 32, 5);
  MsBfsResult out;
  session.run(sources, out);
  expect_result_matches_serial(g, sources, out);
  EXPECT_GT(out.bottom_up_levels, 0u)
      << "alpha rule never fired on a dense low-diameter RMAT";

  // A second wave reuses mask arrays and queues left by bottom-up
  // retirement, and a disjoint source set must come out exact too.
  const auto wave2 = sample_sources(g, 16, 99);
  session.run(wave2, out);
  expect_result_matches_serial(g, wave2, out);
}

TEST(MsBfs, SharedScansBeatRepeatedBfsOnWork) {
  // Not a timing assertion (unreliable on 1 CPU) — a structural one:
  // the batch visits each (vertex, level) expansion at most once per
  // *distinct frontier mask wave*, so results must still be exact when
  // traversals overlap almost completely (all sources in one tight
  // community).
  const CsrGraph g = CsrGraph::from_edges(gen::complete(64));
  std::vector<vid_t> sources;
  for (vid_t v = 0; v < 32; ++v) sources.push_back(v);
  expect_matches_serial(g, sources, 8);
}

}  // namespace
}  // namespace optibfs
