// Locality layer (DESIGN.md §3.1a): vertex reordering, prefetched
// scans, word-scan bottom-up, and the zero-alloc scratch arena; plus
// the hybrid direction rule and the inlined top-down hot path, whose
// work counters these tests pin down (DESIGN.md §3.3a).
//
// The invariant under test everywhere: locality knobs must be
// observationally invisible. Sources and results stay in original
// vertex IDs (bfs_result.hpp convention), every configuration agrees
// with the serial oracle on the *original* graph, and the ablation
// flags change counters and timings only.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/bfs_serial.hpp"
#include "core/direction_rule.hpp"
#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "graph/workloads.hpp"
#include "harness/source_sampler.hpp"
#include "harness/verifier.hpp"
#include "service/bfs_service.hpp"

namespace optibfs {
namespace {

using telemetry::kBottomUpWordsSkipped;
using telemetry::kDuplicatePops;
using telemetry::kEdgesScanned;
using telemetry::kLevelsBottomUp;
using telemetry::kPrefetchIssued;
using telemetry::kRevisits;
using telemetry::kScratchReuses;

CsrGraph scale_free_graph() {
  return CsrGraph::from_edges(gen::power_law(1500, 12000, 2.2, 7));
}

/// Dense, low-diameter RMAT: the hybrid engines reliably flip to
/// bottom-up on it, which the word-scan tests need.
CsrGraph dense_rmat() { return CsrGraph::from_edges(gen::rmat(10, 30, 5)); }

/// A source whose internal ID moves under the permutation — the
/// "permuted source" edge case (to_internal(s) != s).
vid_t moved_source(const CsrGraph& g) {
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (g.to_internal(v) != v && g.out_degree(g.to_internal(v)) > 0) {
      return v;
    }
  }
  return 0;
}

TEST(Reorder, PermutationIsABijectionPreservingStructure) {
  const CsrGraph g = scale_free_graph();
  for (const ReorderPolicy policy :
       {ReorderPolicy::kDegreeSort, ReorderPolicy::kHubCluster}) {
    const CsrGraph r = g.reorder(policy);
    ASSERT_TRUE(r.is_reordered());
    ASSERT_EQ(r.num_vertices(), g.num_vertices());
    ASSERT_EQ(r.num_edges(), g.num_edges());
    EXPECT_EQ(r.max_out_degree(), g.max_out_degree());

    // perm / inv_perm invert each other.
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(r.to_original(r.to_internal(v)), v);
      EXPECT_EQ(r.to_internal(r.to_original(v)), v);
    }

    // Adjacency is the same graph up to relabeling: every original
    // edge u->w maps to an internal edge, with matching degrees.
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      const vid_t ui = r.to_internal(u);
      ASSERT_EQ(r.out_degree(ui), g.out_degree(u));
      std::vector<vid_t> expected(g.out_neighbors(u).begin(),
                                  g.out_neighbors(u).end());
      std::vector<vid_t> got;
      for (const vid_t wi : r.out_neighbors(ui)) {
        got.push_back(r.to_original(wi));
      }
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "vertex " << u;
    }
  }
}

TEST(Reorder, DegreeSortOrdersByDescendingOutDegree) {
  const CsrGraph g = scale_free_graph();
  const CsrGraph r = g.reorder(ReorderPolicy::kDegreeSort);
  for (vid_t v = 0; v + 1 < r.num_vertices(); ++v) {
    EXPECT_GE(r.out_degree(v), r.out_degree(v + 1));
  }
}

TEST(Reorder, NonePolicyYieldsIdentityCopy) {
  const CsrGraph g = scale_free_graph();
  const CsrGraph r = g.reorder(ReorderPolicy::kNone);
  EXPECT_FALSE(r.is_reordered());
  ASSERT_EQ(r.num_edges(), g.num_edges());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.out_degree(v), g.out_degree(v));
  }
}

TEST(Reorder, ComposingReordersAnswersInFirstGraphIds) {
  const CsrGraph g = scale_free_graph();
  const CsrGraph r2 =
      g.reorder(ReorderPolicy::kDegreeSort).reorder(ReorderPolicy::kHubCluster);
  ASSERT_TRUE(r2.is_reordered());
  // to_internal/to_original on the doubly-reordered graph still speak
  // the *original* graph's ID space.
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(r2.to_original(r2.to_internal(u)), u);
    EXPECT_EQ(r2.out_degree(r2.to_internal(u)), g.out_degree(u));
  }
}

TEST(Reorder, MaxOutDegreeMatchesRecompute) {
  const CsrGraph g = dense_rmat();
  vid_t expected = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    expected = std::max(expected, g.out_degree(v));
  }
  EXPECT_EQ(g.max_out_degree(), expected);
  EXPECT_EQ(g.reorder(ReorderPolicy::kDegreeSort).max_out_degree(), expected);
}

TEST(Reorder, EnginesAnswerInOriginalIdsOnReorderedGraphs) {
  const CsrGraph g = scale_free_graph();
  const BFSResult oracle_from0 = bfs_serial(g, 0);
  for (const ReorderPolicy policy :
       {ReorderPolicy::kDegreeSort, ReorderPolicy::kHubCluster}) {
    const CsrGraph r = g.reorder(policy);
    const vid_t moved = moved_source(r);
    ASSERT_NE(r.to_internal(moved), moved) << "edge case needs a moved source";
    const BFSResult oracle_moved = bfs_serial(g, moved);
    BFSOptions options;
    options.num_threads = 4;
    for (const char* name :
         {"BFS_C", "BFS_CL", "BFS_WSL", "BFS_CL_H", "BFS_WSL_H"}) {
      auto engine = make_bfs(name, r, options);
      for (const vid_t source : {vid_t{0}, moved}) {
        const BFSResult result = engine->run(source);
        // Structural check against the reordered graph itself...
        const VerifyReport report = verify_against_serial(r, source, result);
        EXPECT_TRUE(report.ok) << name << ": " << report.error;
        // ...and level-exact agreement with the serial oracle on the
        // *original* graph — the transparency claim.
        const BFSResult& oracle = source == 0 ? oracle_from0 : oracle_moved;
        EXPECT_EQ(result.level, oracle.level) << name;
      }
    }
  }
}

TEST(Reorder, SerialOracleItselfRemapsOnReorderedGraphs) {
  const CsrGraph g = scale_free_graph();
  const CsrGraph r = g.reorder(ReorderPolicy::kDegreeSort);
  const vid_t source = moved_source(r);
  const BFSResult plain = bfs_serial(g, source);
  const BFSResult reordered = bfs_serial(r, source);
  EXPECT_EQ(plain.level, reordered.level);
  EXPECT_EQ(plain.vertices_visited, reordered.vertices_visited);
}

TEST(Reorder, MsBfsRowsMatchSerialOnOriginalGraph) {
  const CsrGraph g = scale_free_graph();
  const CsrGraph r = g.reorder(ReorderPolicy::kHubCluster);
  BFSOptions options;
  options.num_threads = 4;
  MsBfsSession session(r, options);
  // A wave narrower than the team first (members 2 and 3 scatter no
  // row), then a full-width one that grows the remap scratch.
  for (const std::vector<vid_t>& sources :
       {std::vector<vid_t>{moved_source(r), 5},
        std::vector<vid_t>{0, moved_source(r), 5, 17}}) {
    const MsBfsResult wave = session.run(sources);
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const BFSResult oracle = bfs_serial(g, sources[s]);
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(wave.distance_of(static_cast<int>(s), v), oracle.level[v])
            << "source " << sources[s] << " vertex " << v;
      }
    }
  }
}

TEST(Reorder, ServiceQueriesAreReorderTransparent) {
  auto graph = std::make_shared<const CsrGraph>(scale_free_graph());
  ServiceConfig config;
  config.num_threads = 2;
  config.cache_bytes = 0;  // force every query through an engine
  config.reorder = ReorderPolicy::kHubCluster;
  BfsService service(config);
  service.register_graph(graph);

  const BFSResult oracle = bfs_serial(*graph, 3);
  // Distance + full level array.
  const QueryResult dist = service.distance(3, 42);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist.distance, oracle.level[42]);
  ASSERT_NE(dist.levels, nullptr);
  EXPECT_EQ(*dist.levels, oracle.level);
  // Level set speaks original IDs.
  const QueryResult ring = service.level_set(3, 2);
  ASSERT_TRUE(ring.ok());
  for (const vid_t v : ring.members) EXPECT_EQ(oracle.level[v], 2);
  // Path: endpoints, length, and every hop must be an original-graph
  // edge (the finalize() walk translates IDs through the transpose).
  vid_t target = kInvalidVertex;
  for (vid_t v = 0; v < graph->num_vertices(); ++v) {
    if (oracle.level[v] >= 2) {
      target = v;
      break;
    }
  }
  ASSERT_NE(target, kInvalidVertex);
  const QueryResult path = service.path(3, target);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path.distance, oracle.level[target]);
  ASSERT_EQ(path.path.size(), static_cast<std::size_t>(path.distance) + 1);
  EXPECT_EQ(path.path.front(), 3u);
  EXPECT_EQ(path.path.back(), target);
  for (std::size_t i = 0; i + 1 < path.path.size(); ++i) {
    EXPECT_TRUE(graph->has_edge(path.path[i], path.path[i + 1]))
        << path.path[i] << "->" << path.path[i + 1];
  }
}

TEST(WordScan, AblationFlagChangesCountersNotResults) {
  const CsrGraph g = dense_rmat();
  BFSOptions on;
  on.num_threads = 4;
  on.bottom_up_word_scan = true;
  BFSOptions off = on;
  off.bottom_up_word_scan = false;

  auto scan = make_bfs("BFS_CL_H", g, on);
  auto probe = make_bfs("BFS_CL_H", g, off);
  const BFSResult with_scan = scan->run(1);
  const BFSResult without = probe->run(1);
  EXPECT_EQ(with_scan.level, without.level);
  EXPECT_EQ(with_scan.vertices_visited, without.vertices_visited);

  // The dense RMAT must actually have gone bottom-up, and the word scan
  // must have skipped finished words; the ablation path reports none.
  ASSERT_GT(with_scan.counters[kLevelsBottomUp], 0u);
  EXPECT_GT(with_scan.counters[kBottomUpWordsSkipped], 0u);
  EXPECT_EQ(without.counters[kBottomUpWordsSkipped], 0u);
}

TEST(Prefetch, DistanceChangesCountersNotResults) {
  const CsrGraph g = dense_rmat();
  BFSOptions near;
  near.num_threads = 4;
  near.prefetch_distance = 0;
  BFSOptions far = near;
  far.prefetch_distance = 8;

  auto plain = make_bfs("BFS_CL_H", g, near);
  auto prefetching = make_bfs("BFS_CL_H", g, far);
  const BFSResult base = plain->run(1);
  const BFSResult pf = prefetching->run(1);
  EXPECT_EQ(base.level, pf.level);
  EXPECT_EQ(base.counters[kPrefetchIssued], 0u);
  EXPECT_GT(pf.counters[kPrefetchIssued], 0u);

  // MS-BFS scans prefetch under the same flag.
  MsBfsSession session(g, far);
  const MsBfsResult wave = session.run({1, 2, 3});
  EXPECT_GT(wave.counters[kPrefetchIssued], 0u);
}

TEST(Arena, RepeatedRunsReuseEveryBuffer) {
  const CsrGraph g = dense_rmat();
  BFSOptions options;
  options.num_threads = 4;
  auto engine = make_bfs("BFS_CL_H", g, options);
  ASSERT_EQ(engine->arena_stats().runs(), 0u);

  BFSResult out;  // reused across runs, like the service's scratch
  engine->run(1, out);
  const BFSResult first = out;  // copy for the oracle check
  ASSERT_EQ(engine->arena_stats().allocations, 1u);
  ASSERT_EQ(engine->arena_stats().reuses, 0u);
  EXPECT_EQ(first.counters[kScratchReuses], 0u);

  engine->run(2, out);
  const ArenaStats stats = engine->arena_stats();
  EXPECT_EQ(stats.allocations, 1u) << "second run must not allocate";
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.runs(), 2u);
  EXPECT_EQ(out.counters[kScratchReuses], 1u);

  // Reuse is not staleness: both runs are oracle-exact.
  EXPECT_EQ(first.level, bfs_serial(g, 1).level);
  EXPECT_EQ(out.level, bfs_serial(g, 2).level);
}

// A caller that keeps `out` reuses its rows: a second wave no deeper
// than the first allocates nothing. A row moved out (the serving
// core's hand-off to its cache) is allocated afresh, and the arena
// counts that wave as an allocation.
TEST(Arena, MsBfsWavesReuseEveryBuffer) {
  const CsrGraph g = dense_rmat();
  BFSOptions options;
  options.num_threads = 4;
  MsBfsSession session(g, options);
  MsBfsResult out;
  session.run({1, 2, 3}, out);
  ASSERT_EQ(session.arena_stats().allocations, 1u);
  std::vector<const level_t*> rows;
  for (const std::vector<level_t>& row : out.distance) rows.push_back(row.data());
  session.run({4, 5, 6}, out);
  const ArenaStats stats = session.arena_stats();
  EXPECT_EQ(stats.allocations, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(out.counters[kScratchReuses], 1u);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(out.distance[s].data(), rows[s]) << "row " << s << " moved";
  }
  const std::vector<std::pair<int, vid_t>> checks{{0, 4}, {2, 6}};
  for (const auto& [s, src] : checks) {
    const BFSResult oracle = bfs_serial(g, src);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(out.distance_of(s, v), oracle.level[v]);
    }
  }

  const std::vector<level_t> taken = std::move(out.distance[0]);
  session.run({4, 5, 6}, out);
  EXPECT_EQ(session.arena_stats().allocations, 2u);
  EXPECT_EQ(out.counters[kScratchReuses], 0u);
  EXPECT_EQ(out.distance[0], taken);
}

// The bottom-up pull looks only for live sources. An isolated source's
// BFS ends at level 0, so adding one to a hybrid wave must not change
// which levels run bottom-up or how many edges they scan.
TEST(MsBfsWave, DeadSourceCostsNoBottomUpScan) {
  EdgeList edges = gen::rmat(12, 16, 33);
  const vid_t isolated = edges.num_vertices();
  edges.ensure_vertices(isolated + 1);
  const CsrGraph g = CsrGraph::from_edges(edges);
  BFSOptions options;
  options.num_threads = 1;
  options.direction_mode = DirectionMode::kHybrid;
  MsBfsSession session(g, options);
  std::vector<vid_t> sources = sample_sources(g, 16, 5);
  const MsBfsResult alive = session.run(sources);
  sources.push_back(isolated);
  const MsBfsResult with_dead = session.run(sources);

  ASSERT_GT(alive.bottom_up_levels, 0u);
  EXPECT_EQ(with_dead.bottom_up_levels, alive.bottom_up_levels);
  EXPECT_EQ(with_dead.counters[kEdgesScanned], alive.counters[kEdgesScanned]);
  for (std::size_t s = 0; s + 1 < sources.size(); ++s) {
    EXPECT_EQ(with_dead.distance[s], alive.distance[s]) << "row " << s;
    EXPECT_EQ(with_dead.vertices_explored[s], alive.vertices_explored[s]);
  }
  EXPECT_EQ(with_dead.vertices_explored.back(), 1u);
  EXPECT_EQ(with_dead.distance_of(16, isolated), 0);
}

// Depths past 127 leave the byte-table decode: a 129-vertex path ends at
// depth 128, and a 300-vertex path needs nine level planes. A team of
// four records the planes from every member.
TEST(MsBfsWave, DeepWavesMatchSerial) {
  for (const vid_t length : {vid_t{129}, vid_t{300}}) {
    const CsrGraph g = CsrGraph::from_edges(gen::path(length));
    const std::vector<vid_t> sources{0, 1, length / 2, length - 1};
    for (const int p : {1, 4}) {
      BFSOptions options;
      options.num_threads = p;
      MsBfsSession session(g, options);
      const MsBfsResult wave = session.run(sources);
      for (std::size_t s = 0; s < sources.size(); ++s) {
        const BFSResult oracle = bfs_serial(g, sources[s]);
        EXPECT_EQ(wave.distance[s], oracle.level)
            << "path " << length << " p=" << p << " source " << sources[s];
        EXPECT_EQ(wave.vertices_explored[s], oracle.vertices_visited);
      }
    }
  }
}

TEST(Arena, ServiceSteadyStateIsZeroAlloc) {
  auto graph = std::make_shared<const CsrGraph>(scale_free_graph());
  ServiceConfig config;
  config.num_threads = 2;
  config.cache_bytes = 0;  // don't let the cache absorb the queries
  BfsService service(config);
  service.register_graph(graph);

  // Warmup: the first dispatch sizes the engine arena.
  ASSERT_TRUE(service.distance(0, 1).ok());
  const ArenaStats warm = service.arena_stats();
  EXPECT_EQ(warm.allocations, 1u);

  constexpr std::uint64_t kQueries = 8;
  for (vid_t source = 1; source <= kQueries; ++source) {
    ASSERT_TRUE(service.distance(source, 0).ok());
  }
  const ArenaStats steady = service.arena_stats();
  EXPECT_EQ(steady.allocations, warm.allocations)
      << "steady-state queries allocated fresh scratch";
  EXPECT_EQ(steady.reuses, warm.reuses + kQueries);
  EXPECT_GT(steady.reuse_fraction(), 0.8);
}

TEST(DirectionRule, PlateauWobbleStaysTopDown) {
  // n = 1000, m = 10000, alpha = 15, beta = 18: the alpha threshold
  // starts near 667 frontier edges and falls as edges are explored.
  DirectionRule rule(15, 18, 1000);
  rule.reset(10000);
  EXPECT_FALSE(rule.next(1, 10));
  EXPECT_FALSE(rule.next(100, 600));
  // A plateau that ticks up by 5% has enough frontier edges for the
  // alpha rule, but it is not an expansion phase.
  EXPECT_FALSE(rule.next(105, 2000));
  EXPECT_FALSE(rule.next(110, 2100));
  // Doubling with the edges to match enters bottom-up ...
  EXPECT_TRUE(rule.next(220, 4000));
  // ... which the beta rule holds while the frontier is >= n/beta = 55,
  // then leaves.
  EXPECT_TRUE(rule.next(60, 300));
  EXPECT_FALSE(rule.next(54, 300));
  EXPECT_FALSE(rule.next(0, 0));
}

TEST(DirectionRule, AlphaZeroNeverGoesBottomUpAndBetaZeroLeavesAtOnce) {
  DirectionRule never(0, 18, 1000);
  never.reset(10000);
  EXPECT_FALSE(never.next(1, 5000));
  EXPECT_FALSE(never.next(500, 9000));

  DirectionRule once(15, 0, 1000);
  once.reset(10000);
  EXPECT_TRUE(once.next(1, 5000));
  EXPECT_FALSE(once.next(900, 5000));
}

// The mesh classes' frontier plateaus for most of the traversal and
// wobbles by a few percent. A growth guard weaker than doubling lets
// each uptick fire a one-level bottom-up excursion (4 to 5 per source on
// freescale, 2 on cage15) that rescans the in-edges of every unvisited
// vertex.
TEST(DirectionRule, MeshesRunNoBottomUpLevel) {
  for (const char* name : {"freescale", "cage15"}) {
    const Workload w = make_workload(name, WorkloadConfig{});
    const CsrGraph& g = w.graph;
    const BFSResult oracle = bfs_serial(g, 0);
    ASSERT_EQ(oracle.vertices_visited, g.num_vertices())
        << name << ": source 0 must reach every vertex";
    for (const int p : {1, 4}) {
      BFSOptions options;
      options.num_threads = p;
      auto engine = make_bfs("BFS_CL_H", g, options);
      const BFSResult r = engine->run(0);
      EXPECT_EQ(r.level, oracle.level) << name << " p=" << p;
      EXPECT_EQ(r.bottom_up_levels, 0u) << name << " p=" << p;
      // One thread scans every edge exactly once; a team may scan more
      // through optimistic duplicates.
      if (p == 1) {
        EXPECT_EQ(r.edges_scanned, g.num_edges()) << name;
      } else {
        EXPECT_GE(r.edges_scanned, g.num_edges()) << name;
      }
    }
  }
}

TEST(DirectionRule, DenseRmatStillGoesBottomUp) {
  const CsrGraph g = dense_rmat();
  BFSOptions options;
  options.num_threads = 4;
  auto engine = make_bfs("BFS_CL_H", g, options);
  const BFSResult r = engine->run(1);
  EXPECT_EQ(r.level, bfs_serial(g, 1).level);
  EXPECT_GT(r.bottom_up_levels, 0u);

  options.direction_mode = DirectionMode::kHybrid;
  MsBfsSession session(g, options);
  const MsBfsResult wave = session.run({1, 2, 3, 4});
  EXPECT_GT(wave.bottom_up_levels, 0u);
  const BFSResult oracle = bfs_serial(g, 3);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(wave.distance_of(2, v), oracle.level[v]);
  }
}

// The drain loops tally their counters in locals and add them to the
// slab once per segment or neighbor range. These identities fail if a
// tally is dropped or added twice.
TEST(HotPath, CountersKeepTheirIdentities) {
  const CsrGraph g = scale_free_graph();
  const vid_t source = 1;
  const BFSResult oracle = bfs_serial(g, source);
  for (const char* algo : {"BFS_C", "BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"}) {
    for (const std::int64_t cutoff : {0, 64}) {
      BFSOptions options;
      options.alpha = 0;  // top-down only
      options.serial_frontier_cutoff = cutoff;
      options.num_threads = 1;
      const BFSResult one = make_bfs(algo, g, options)->run(source);
      ASSERT_EQ(one.level, oracle.level) << algo;
      EXPECT_EQ(one.vertices_explored, one.vertices_visited) << algo;
      EXPECT_EQ(one.counters[kRevisits],
                one.edges_scanned - (one.vertices_visited - 1))
          << algo << " cutoff=" << cutoff;
      EXPECT_EQ(one.counters[kDuplicatePops], 0u) << algo;

      options.num_threads = 4;
      const BFSResult team = make_bfs(algo, g, options)->run(source);
      ASSERT_EQ(team.level, oracle.level) << algo;
      EXPECT_LE(team.counters[kRevisits], team.edges_scanned) << algo;
      EXPECT_GE(team.vertices_explored, team.vertices_visited) << algo;
    }
  }
}

}  // namespace
}  // namespace optibfs
