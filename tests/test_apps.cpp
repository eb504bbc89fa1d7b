// Application-layer tests: betweenness centrality, bipartiteness,
// closeness centrality, diameter estimation.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/betweenness.hpp"
#include "apps/graph_metrics.hpp"
#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"

namespace optibfs {
namespace {

BFSOptions small_opts() {
  BFSOptions options;
  options.num_threads = 4;
  return options;
}

/// Wasserman-Faust closeness of `v` from one serial BFS: the reference
/// the MS-BFS waves of closeness_centrality are checked against.
double serial_closeness(const CsrGraph& g, vid_t v) {
  const BFSResult bfs = bfs_serial(g, v);
  double reachable = 0.0;
  double distance_sum = 0.0;
  for (const level_t d : bfs.level) {
    if (d != kUnvisited) {
      reachable += 1.0;
      distance_sum += d;
    }
  }
  if (reachable <= 1.0) return 0.0;
  const double n = static_cast<double>(g.num_vertices());
  return (reachable - 1.0) / (n - 1.0) * ((reachable - 1.0) / distance_sum);
}

// ---- betweenness centrality ----

TEST(BetweennessApp, PathGraphExact) {
  // On an undirected path of 5, exact BC (directed counting, each
  // ordered pair) of vertex i is 2*i*(n-1-i).
  const CsrGraph g = CsrGraph::from_edges(gen::path(5));
  BetweennessOptions options;
  options.bfs = small_opts();
  options.num_sources = 0;  // exact
  const auto bc = betweenness_centrality(g, options);
  ASSERT_EQ(bc.size(), 5u);
  EXPECT_NEAR(bc[0], 0.0, 1e-9);
  EXPECT_NEAR(bc[1], 2.0 * 1 * 3, 1e-9);
  EXPECT_NEAR(bc[2], 2.0 * 2 * 2, 1e-9);
  EXPECT_NEAR(bc[3], 2.0 * 3 * 1, 1e-9);
  EXPECT_NEAR(bc[4], 0.0, 1e-9);
}

TEST(BetweennessApp, StarCenterDominates) {
  const CsrGraph g = CsrGraph::from_edges(gen::star(12));
  BetweennessOptions options;
  options.bfs = small_opts();
  const auto bc = betweenness_centrality(g, options);
  // Center relays every leaf pair: BC = (n-1)(n-2) = 110.
  EXPECT_NEAR(bc[0], 110.0, 1e-9);
  for (vid_t v = 1; v < 12; ++v) EXPECT_NEAR(bc[v], 0.0, 1e-9);
}

TEST(BetweennessApp, SplitShortestPathsShareCredit) {
  // A 4-cycle: two equal shortest paths between opposite corners, so
  // each relay vertex gets half a pair's credit.
  EdgeList edges(4);
  for (vid_t v = 0; v < 4; ++v) {
    edges.add_unchecked(v, (v + 1) % 4);
    edges.add_unchecked((v + 1) % 4, v);
  }
  const CsrGraph g = CsrGraph::from_edges(edges);
  BetweennessOptions options;
  options.bfs = small_opts();
  const auto bc = betweenness_centrality(g, options);
  for (vid_t v = 0; v < 4; ++v) EXPECT_NEAR(bc[v], 1.0, 1e-9);
}

TEST(BetweennessApp, SampledApproximatesExact) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(300, 3000, 4));
  BetweennessOptions exact;
  exact.bfs = small_opts();
  const auto full = betweenness_centrality(g, exact);

  BetweennessOptions sampled = exact;
  sampled.num_sources = 150;
  sampled.seed = 9;
  const auto approx = betweenness_centrality(g, sampled);

  // The top-centrality vertex of the sampled estimate must rank highly
  // in the exact scores (coarse but meaningful agreement check).
  const auto arg_max = static_cast<std::size_t>(
      std::max_element(approx.begin(), approx.end()) - approx.begin());
  const double exact_max = *std::max_element(full.begin(), full.end());
  EXPECT_GT(full[arg_max], 0.3 * exact_max);
}

TEST(BetweennessApp, AgreesAcrossEngines) {
  const CsrGraph g = CsrGraph::from_edges(gen::power_law(200, 1600, 2.3, 6));
  BetweennessOptions a;
  a.bfs = small_opts();
  a.algorithm = "sbfs";
  BetweennessOptions b = a;
  b.algorithm = "BFS_WSL";
  const auto bc_serial = betweenness_centrality(g, a);
  const auto bc_parallel = betweenness_centrality(g, b);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(bc_serial[v], bc_parallel[v], 1e-6) << "vertex " << v;
  }
}

// ---- bipartiteness ----

TEST(GraphMetrics, GridIsBipartite) {
  const CsrGraph g = CsrGraph::from_edges(gen::grid2d(6, 7));
  const BipartiteReport report = check_bipartite(g, small_opts());
  EXPECT_TRUE(report.bipartite);
}

TEST(GraphMetrics, OddCycleIsNot) {
  EdgeList edges(5);
  for (vid_t v = 0; v < 5; ++v) {
    edges.add_unchecked(v, (v + 1) % 5);
    edges.add_unchecked((v + 1) % 5, v);
  }
  const BipartiteReport report =
      check_bipartite(CsrGraph::from_edges(edges), small_opts());
  EXPECT_FALSE(report.bipartite);
  EXPECT_NE(report.odd_edge_u, kInvalidVertex);
  // The witness must be a real equal-parity edge.
  EXPECT_TRUE(
      CsrGraph::from_edges(edges).has_edge(report.odd_edge_u,
                                           report.odd_edge_v));
}

TEST(GraphMetrics, SelfLoopBreaksBipartiteness) {
  EdgeList edges = gen::path(4);
  edges.add_unchecked(2, 2);
  const BipartiteReport report =
      check_bipartite(CsrGraph::from_edges(edges), small_opts());
  EXPECT_FALSE(report.bipartite);
}

TEST(GraphMetrics, DisconnectedBipartitePieces) {
  EdgeList edges = gen::path(6);
  edges.ensure_vertices(14);
  const EdgeList tree = gen::binary_tree(7);
  for (const Edge& e : tree.edges()) {
    edges.add_unchecked(e.src + 6, e.dst + 6);
  }
  const BipartiteReport report =
      check_bipartite(CsrGraph::from_edges(edges), small_opts());
  EXPECT_TRUE(report.bipartite);
}

// ---- closeness centrality ----

TEST(GraphMetrics, ClosenessOnPathGraph) {
  // Undirected path of 5: middle vertex has the smallest distance sum
  // (1+1+2+2=6); ends have 1+2+3+4=10.
  const CsrGraph g = CsrGraph::from_edges(gen::path(5));
  const auto closeness = closeness_centrality(g, small_opts());
  ASSERT_EQ(closeness.size(), 5u);
  EXPECT_GT(closeness[2], closeness[1]);
  EXPECT_GT(closeness[1], closeness[0]);
  EXPECT_NEAR(closeness[2], 4.0 / 6.0, 1e-9);   // r=n=5: (n-1)/sum
  EXPECT_NEAR(closeness[0], 4.0 / 10.0, 1e-9);
}

TEST(GraphMetrics, ClosenessHandlesDisconnection) {
  EdgeList edges = gen::path(4);
  edges.ensure_vertices(6);  // two isolated extras
  const CsrGraph g = CsrGraph::from_edges(edges);
  const auto closeness = closeness_centrality(g, small_opts());
  EXPECT_EQ(closeness[4], 0.0);
  EXPECT_EQ(closeness[5], 0.0);
  // Wasserman-Faust scales by reachable fraction: path vertices score
  // less than they would on a connected 4-vertex path.
  EXPECT_GT(closeness[1], 0.0);
  EXPECT_LT(closeness[1], 1.0);
}

TEST(GraphMetrics, ClosenessSelectedSourcesOnly) {
  const CsrGraph g = CsrGraph::from_edges(gen::star(10));
  const auto closeness =
      closeness_centrality(g, small_opts(), {0, 3});
  EXPECT_GT(closeness[0], closeness[3]);  // hub is closest to everything
  EXPECT_EQ(closeness[1], 0.0);           // not requested -> untouched
}

TEST(GraphMetrics, BatchedClosenessMatchesPerSource) {
  // 500 sources: seven full 64-source waves and one partial one.
  const CsrGraph g = CsrGraph::from_edges(gen::power_law(500, 4000, 2.3, 8));
  const auto batched = closeness_centrality(g, small_opts());
  ASSERT_EQ(batched.size(), g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(batched[v], serial_closeness(g, v), 1e-12) << "vertex " << v;
  }
}

TEST(GraphMetrics, BatchedClosenessSelectedSources) {
  const CsrGraph g = CsrGraph::from_edges(gen::grid2d(10, 10));
  const std::vector<vid_t> picks{0, 55, 99};
  const auto batched = closeness_centrality(g, small_opts(), picks);
  for (const vid_t v : picks) {
    EXPECT_NEAR(batched[v], serial_closeness(g, v), 1e-12);
  }
  EXPECT_EQ(batched[1], 0.0);
}

// ---- diameter ----

TEST(GraphMetrics, DiameterOfPathIsExact) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(50));
  const DiameterBounds bounds = estimate_diameter(g, small_opts());
  EXPECT_EQ(bounds.lower, 49);
  EXPECT_GE(bounds.upper, bounds.lower);
  EXPECT_LE(bounds.bfs_runs, 4);
}

TEST(GraphMetrics, BoundsBracketGridDiameter) {
  const CsrGraph g = CsrGraph::from_edges(gen::grid2d(9, 13));
  const DiameterBounds bounds = estimate_diameter(g, small_opts(), 6);
  EXPECT_LE(bounds.lower, 20);
  EXPECT_GE(bounds.lower, 12);  // double sweep finds >= max axis length
  EXPECT_GE(bounds.upper, 20);
}

TEST(GraphMetrics, EmptyGraphDiameter) {
  const DiameterBounds bounds = estimate_diameter(CsrGraph{}, small_opts());
  EXPECT_EQ(bounds.bfs_runs, 0);
  EXPECT_EQ(bounds.lower, 0);
}

}  // namespace
}  // namespace optibfs
