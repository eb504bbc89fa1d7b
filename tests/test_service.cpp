// BFS query service: wave batching, cache, admission control.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"
#include "harness/source_sampler.hpp"
#include "service/bfs_service.hpp"
#include "service/result_cache.hpp"

namespace optibfs {
namespace {

std::shared_ptr<const CsrGraph> make_graph(EdgeList edges) {
  return std::make_shared<const CsrGraph>(CsrGraph::from_edges(edges));
}

ServiceConfig small_config(int threads = 2) {
  ServiceConfig config;
  config.num_threads = threads;
  return config;
}

TEST(BfsService, SingleQueryMatchesSerialOracle) {
  const auto graph = make_graph(gen::erdos_renyi(600, 4000, 7));
  BfsService service(small_config());
  service.register_graph(graph);

  const vid_t source = 5;
  const BFSResult reference = bfs_serial(*graph, source);
  const QueryResult result = service.distance(source, 77);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.distance, reference.level[77]);
  ASSERT_NE(result.levels, nullptr);
  ASSERT_EQ(result.levels->size(), graph->num_vertices());
  for (vid_t v = 0; v < graph->num_vertices(); ++v) {
    ASSERT_EQ((*result.levels)[v], reference.level[v]) << "vertex " << v;
  }
}

TEST(BfsService, ConcurrentSubmittersCoalesceAndMatchOracle) {
  // The tentpole scenario: many threads firing point queries, the
  // replica coalescing them into MS-BFS waves. Every answer must
  // match the serial oracle regardless of how the batches formed.
  const auto graph = make_graph(gen::rmat(10, 8, 31));
  ServiceConfig config = small_config(4);
  config.max_batch = 8;
  BfsService service(config);
  service.register_graph(graph);

  const auto sources = sample_sources(*graph, 12, 3);
  std::vector<BFSResult> oracle;
  oracle.reserve(sources.size());
  for (const vid_t s : sources) oracle.push_back(bfs_serial(*graph, s));

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 24;
  std::vector<std::vector<std::future<QueryResult>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        Query q;
        q.kind = QueryKind::kDistance;
        q.source = sources[static_cast<std::size_t>(t * 7 + i) %
                           sources.size()];
        futures[static_cast<std::size_t>(t)].push_back(service.submit(q));
      }
    });
  }
  for (auto& t : submitters) t.join();

  for (int t = 0; t < kSubmitters; ++t) {
    for (int i = 0; i < kPerSubmitter; ++i) {
      QueryResult r = futures[static_cast<std::size_t>(t)]
                          [static_cast<std::size_t>(i)].get();
      ASSERT_TRUE(r.ok());
      const std::size_t which = static_cast<std::size_t>(t * 7 + i) %
                                sources.size();
      const BFSResult& ref = oracle[which];
      ASSERT_EQ(r.levels->size(), graph->num_vertices());
      for (vid_t v = 0; v < graph->num_vertices(); ++v) {
        ASSERT_EQ((*r.levels)[v], ref.level[v])
            << "source " << sources[which] << " vertex " << v;
      }
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.completed + stats.cache_hits >= stats.submitted, true);
  // Histogram accounting: dispatched queries = sum over widths of
  // width * count, and every dispatch is a wave or a single.
  std::uint64_t dispatches = 0;
  for (std::size_t w = 1; w < stats.batch_histogram.size(); ++w) {
    dispatches += stats.batch_histogram[w];
  }
  EXPECT_EQ(dispatches, stats.waves + stats.single_dispatches);
  EXPECT_LE(stats.mean_batch_width(), 8.0);
}

TEST(BfsService, CacheServesRepeatsWithoutRecompute) {
  const auto graph = make_graph(gen::power_law(2000, 12000, 2.2, 5));
  BfsService service(small_config());
  service.register_graph(graph);

  const QueryResult first = service.distance(3, 100);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);

  const QueryResult second = service.distance(3, 200);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.levels, first.levels);  // literally the shared array

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_entries, 1u);
}

TEST(BfsService, CacheInvalidationOnGraphSwap) {
  // Same query, different graph generations: the versioned cache must
  // never serve generation-A levels against generation B.
  BfsService service(small_config());
  const std::uint64_t v1 = service.register_graph(make_graph(gen::path(64)));
  const QueryResult on_path = service.distance(0, 50);
  ASSERT_TRUE(on_path.ok());
  EXPECT_EQ(on_path.distance, 50);
  EXPECT_EQ(on_path.graph_version, v1);

  const std::uint64_t v2 =
      service.register_graph(make_graph(gen::complete(64)));
  EXPECT_GT(v2, v1);
  const QueryResult on_complete = service.distance(0, 50);
  ASSERT_TRUE(on_complete.ok());
  EXPECT_FALSE(on_complete.cache_hit);
  EXPECT_EQ(on_complete.distance, 1);
  EXPECT_EQ(on_complete.graph_version, v2);
}

TEST(BfsService, ZeroTimeoutQueryTimesOut) {
  ServiceConfig config = small_config();
  config.cache_bytes = 0;  // a cache hit would (correctly) beat the deadline
  BfsService service(config);
  service.register_graph(make_graph(gen::path(32)));

  Query q;
  q.source = 0;
  q.timeout_ms = 0.0;  // deadline == submit time: expires before any wave
  const QueryResult result = service.query(q);
  EXPECT_EQ(result.status, QueryStatus::kTimeout);
  EXPECT_EQ(service.stats().timed_out, 1u);
}

TEST(BfsService, ZeroCapacityQueueAppliesBackpressure) {
  ServiceConfig config = small_config();
  config.max_queue = 0;
  config.cache_bytes = 0;
  BfsService service(config);
  service.register_graph(make_graph(gen::path(32)));

  for (int i = 0; i < 4; ++i) {
    const QueryResult result = service.distance(0, 5);
    EXPECT_EQ(result.status, QueryStatus::kRejectedQueueFull);
  }
  EXPECT_EQ(service.stats().rejected, 4u);
}

TEST(BfsService, InvalidQueriesFailFast) {
  BfsService service(small_config());
  // No graph yet.
  EXPECT_EQ(service.distance(0, 1).status, QueryStatus::kInvalid);

  service.register_graph(make_graph(gen::path(16)));
  EXPECT_EQ(service.distance(99, 1).status, QueryStatus::kInvalid);
  EXPECT_EQ(service.path(0, 99).status, QueryStatus::kInvalid);
  EXPECT_EQ(service.level_set(0, -2).status, QueryStatus::kInvalid);
}

TEST(BfsService, PathQueryReturnsValidShortestPath) {
  const auto graph = make_graph(gen::grid2d(20, 20));
  BfsService service(small_config());
  service.register_graph(graph);

  const vid_t source = 0, target = 399;  // opposite corners
  const BFSResult reference = bfs_serial(*graph, source);
  const QueryResult result = service.path(source, target);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.distance, reference.level[target]);
  ASSERT_EQ(result.path.size(),
            static_cast<std::size_t>(result.distance) + 1);
  EXPECT_EQ(result.path.front(), source);
  EXPECT_EQ(result.path.back(), target);
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    EXPECT_TRUE(graph->has_edge(result.path[i], result.path[i + 1]))
        << "hop " << i;
  }

  // Unreachable target: ok status, explicit no-path answer.
  const auto islands = make_graph([] {
    EdgeList edges = gen::path(10);
    edges.ensure_vertices(12);
    return edges;
  }());
  service.register_graph(islands);
  const QueryResult none = service.path(0, 11);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.distance, kUnvisited);
  EXPECT_TRUE(none.path.empty());
}

TEST(BfsService, LevelSetMatchesOracle) {
  const auto graph = make_graph(gen::rmat(9, 8, 17));
  BfsService service(small_config());
  service.register_graph(graph);

  const vid_t source = sample_sources(*graph, 1, 2).front();
  const level_t depth = 2;
  const BFSResult reference = bfs_serial(*graph, source);
  std::vector<vid_t> expected;
  for (vid_t v = 0; v < graph->num_vertices(); ++v) {
    if (reference.level[v] == depth) expected.push_back(v);
  }

  const QueryResult result = service.level_set(source, depth);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.members, expected);  // finalize scans in id order
}

TEST(BfsService, GraphSwapFlushesOrAnswersQueuedQueries) {
  // Queries racing a register_graph either ran against the graph they
  // were admitted for (kOk stamped with the old version) or were
  // flushed as kStaleGraph — never answered against the new graph.
  const auto first = make_graph(gen::rmat(11, 8, 23));
  const auto second = make_graph(gen::star(64));
  ServiceConfig config = small_config(2);
  config.cache_bytes = 0;
  BfsService service(config);
  const std::uint64_t v1 = service.register_graph(first);

  const auto sources = sample_sources(*first, 16, 9);
  std::vector<std::future<QueryResult>> futures;
  for (const vid_t s : sources) {
    Query q;
    q.source = s;
    futures.push_back(service.submit(q));
  }
  const std::uint64_t v2 = service.register_graph(second);

  for (auto& f : futures) {
    const QueryResult r = f.get();
    if (r.ok()) {
      EXPECT_EQ(r.graph_version, v1);
    } else {
      EXPECT_EQ(r.status, QueryStatus::kStaleGraph);
    }
    EXPECT_NE(r.graph_version, v2);
  }
}

TEST(BfsService, ShutdownCompletesEveryFuture) {
  std::vector<std::future<QueryResult>> futures;
  {
    const auto graph = make_graph(gen::rmat(12, 8, 29));
    ServiceConfig config = small_config(2);
    config.cache_bytes = 0;
    BfsService service(config);
    service.register_graph(graph);
    const auto sources = sample_sources(*graph, 32, 4);
    for (const vid_t s : sources) {
      Query q;
      q.source = s;
      futures.push_back(service.submit(q));
    }
  }  // destructor drains: answered or flushed, but never hung
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.status == QueryStatus::kOk ||
                r.status == QueryStatus::kShutdown);
  }
}

// The strict-vs-relaxed engine choice and the prefetch auto-tune
// result must be observable: BENCH comparisons across engine families
// key off ServiceStats::single_source_engine / prefetch_distance.
TEST(BfsService, StatsReportResolvedEngineAndPrefetch) {
  ServiceConfig config = small_config();
  EXPECT_TRUE(BfsService(config).stats().single_source_engine.empty());
  EXPECT_EQ(BfsService(config).stats().prefetch_distance, -1);

  config.single_source_engine = "BFS_ASYNC";
  config.bfs.prefetch_distance = 4;
  BfsService service(config);
  const auto graph = make_graph(gen::erdos_renyi(600, 4000, 7));
  service.register_graph(graph);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.single_source_engine, "BFS_ASYNC");
  // Too small for the auto-tune probe (n < 32768): the configured
  // fixed distance is recorded as-is.
  EXPECT_EQ(stats.prefetch_distance, 4);

  // The async engine serves batch-of-1 queries correctly end to end.
  const BFSResult reference = bfs_serial(*graph, 3);
  const QueryResult result = service.distance(3);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.levels, nullptr);
  EXPECT_EQ(*result.levels, reference.level);
}

TEST(ResultCache, LruEvictionHonorsByteBudget) {
  const std::size_t levels_bytes = 1000 * sizeof(level_t);
  // Room for two entries (payload + per-entry overhead), not three.
  ResultCache cache((levels_bytes + 128) * 2);
  auto levels = [&](level_t fill) {
    return std::make_shared<const std::vector<level_t>>(1000, fill);
  };
  cache.insert(1, 10, levels(0));
  cache.insert(1, 20, levels(1));
  EXPECT_NE(cache.lookup(1, 10), nullptr);  // bumps 10 to MRU
  cache.insert(1, 30, levels(2));           // evicts LRU = 20
  EXPECT_NE(cache.lookup(1, 10), nullptr);
  EXPECT_EQ(cache.lookup(1, 20), nullptr);
  EXPECT_NE(cache.lookup(1, 30), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ResultCache, FingerprintIsolatesGenerations) {
  ResultCache cache(std::size_t{1} << 20);
  auto levels = std::make_shared<const std::vector<level_t>>(100, 3);
  cache.insert(1, 0, levels);
  cache.insert(2, 7, levels);
  EXPECT_EQ(cache.lookup(2, 0), nullptr);  // other fingerprint misses
  (void)cache.extract_all(1);              // replaced content dropped
  EXPECT_EQ(cache.lookup(1, 0), nullptr);
  EXPECT_NE(cache.lookup(2, 7), nullptr);  // matching content survives
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ExtractAllRemovesAndReturnsRows) {
  ResultCache cache(std::size_t{1} << 20);
  auto levels = std::make_shared<const std::vector<level_t>>(100, 3);
  cache.insert(5, 0, levels);
  cache.insert(5, 1, levels);
  cache.insert(9, 2, levels);
  auto rows = cache.extract_all(5);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& [source, ptr] : rows) {
    EXPECT_TRUE(source == 0 || source == 1);
    EXPECT_NE(ptr, nullptr);
  }
  EXPECT_EQ(cache.lookup(5, 0), nullptr);
  EXPECT_NE(cache.lookup(9, 2), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ZeroBudgetDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, 0, std::make_shared<const std::vector<level_t>>(10, 0));
  EXPECT_EQ(cache.lookup(1, 0), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
}

}  // namespace
}  // namespace optibfs
