// Shared helpers for the test suite.
#pragma once

#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"

namespace optibfs::test {

/// Entries of /proc/self/task, or -1 without /proc. A joined thread
/// leaves that list a moment after join() returns, so the count is
/// taken once two reads 1 ms apart agree (at most 100 tries).
inline long settled_thread_count() {
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) return -1;
  const auto read = [&] {
    return static_cast<long>(
        std::distance(std::filesystem::directory_iterator(tasks),
                      std::filesystem::directory_iterator{}));
  };
  long count = read();
  for (int tries = 0; tries < 100; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const long again = read();
    if (again == count) break;
    count = again;
  }
  return count;
}

struct NamedGraph {
  std::string name;
  CsrGraph graph;
};

/// Small but structurally diverse graph zoo used by the algorithm
/// correctness matrix: every shape that has historically broken a BFS
/// (empty frontiers, hotspots, deep paths, dense duplicate storms,
/// disconnected pieces, self-loops, multi-edges).
inline std::vector<NamedGraph> correctness_graph_zoo() {
  std::vector<NamedGraph> zoo;
  zoo.push_back({"single_vertex", CsrGraph::from_edges(EdgeList(1))});
  zoo.push_back({"two_isolated", CsrGraph::from_edges(EdgeList(2))});
  zoo.push_back({"path_64", CsrGraph::from_edges(gen::path(64))});
  zoo.push_back({"star_256", CsrGraph::from_edges(gen::star(256))});
  zoo.push_back({"tree_255", CsrGraph::from_edges(gen::binary_tree(255))});
  zoo.push_back({"grid_16x16", CsrGraph::from_edges(gen::grid2d(16, 16))});
  zoo.push_back({"complete_48", CsrGraph::from_edges(gen::complete(48))});
  zoo.push_back(
      {"er_2k", CsrGraph::from_edges(gen::erdos_renyi(2000, 8000, 7))});
  zoo.push_back(
      {"rmat_10", CsrGraph::from_edges(gen::rmat(10, 8, 11))});
  zoo.push_back({"power_law_2k", CsrGraph::from_edges(gen::power_law(
                                     2000, 12000, 2.2, 13))});
  {
    // Disconnected: two ER blobs with no cross edges.
    EdgeList edges = gen::erdos_renyi(500, 1500, 17);
    edges.ensure_vertices(1000);
    const EdgeList other = gen::erdos_renyi(500, 1500, 19);
    for (const Edge& e : other.edges()) {
      edges.add_unchecked(e.src + 500, e.dst + 500);
    }
    zoo.push_back({"disconnected", CsrGraph::from_edges(edges)});
  }
  {
    // Self-loops and duplicate edges everywhere.
    EdgeList edges = gen::path(100);
    for (vid_t v = 0; v < 100; ++v) {
      edges.add_unchecked(v, v);
      if (v + 1 < 100) edges.add_unchecked(v, v + 1);  // duplicate
    }
    zoo.push_back({"loops_dups", CsrGraph::from_edges(edges)});
  }
  {
    // A long chain feeding a hotspot feeding a long chain: stresses
    // levels with exactly one vertex plus a hotspot burst.
    EdgeList edges(0);
    const vid_t chain = 40, fan = 300;
    for (vid_t v = 0; v + 1 < chain; ++v) edges.add(v, v + 1);
    for (vid_t i = 0; i < fan; ++i) {
      edges.add(chain - 1, chain + i);
      edges.add(chain + i, chain + fan);
    }
    for (vid_t v = chain + fan; v + 1 < chain + fan + chain; ++v) {
      edges.add(v, v + 1);
    }
    zoo.push_back({"chain_hotspot_chain", CsrGraph::from_edges(edges)});
  }
  return zoo;
}

/// Graphs chosen to exercise the hybrid direction machinery: shapes
/// where the alpha rule actually fires (dense/low-diameter), shapes
/// where the switch interacts with unreachable vertices, and degenerate
/// sources (zero out-degree, single vertex).
inline std::vector<NamedGraph> hybrid_direction_zoo() {
  std::vector<NamedGraph> zoo;
  // Dense RMAT: two or three huge middle levels — the direction switch
  // always fires here.
  zoo.push_back({"rmat_dense_11", CsrGraph::from_edges(gen::rmat(11, 32, 5))});
  // Scale-free: hotspot-heavy, low diameter.
  zoo.push_back({"power_law_4k", CsrGraph::from_edges(gen::power_law(
                                     4000, 40000, 2.1, 23))});
  {
    // Disconnected pair of dense blobs: bottom-up scans unreachable
    // vertices every level and must never visit them.
    EdgeList edges = gen::complete(60);
    edges.ensure_vertices(120);
    const EdgeList other = gen::complete(60);
    for (const Edge& e : other.edges()) {
      edges.add_unchecked(e.src + 60, e.dst + 60);
    }
    zoo.push_back({"disconnected_dense", CsrGraph::from_edges(edges)});
  }
  {
    // Reverse star: every spoke points INTO the hub, which has zero
    // out-degree. From the hub the traversal ends at level 0; from a
    // spoke the hub is only reachable through in-edges (the transpose's
    // fat adjacency list).
    EdgeList edges(257);
    for (vid_t i = 1; i < 257; ++i) edges.add_unchecked(i, 0);
    // Ring over the spokes so they form one dense reachable mass.
    for (vid_t i = 1; i < 257; ++i) {
      edges.add_unchecked(i, 1 + (i % 256));
    }
    zoo.push_back({"reverse_star", CsrGraph::from_edges(edges)});
  }
  zoo.push_back({"single_vertex", CsrGraph::from_edges(EdgeList(1))});
  return zoo;
}

}  // namespace optibfs::test
