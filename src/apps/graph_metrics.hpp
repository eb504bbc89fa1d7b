// BFS-derived whole-graph metrics: bipartiteness, diameter bounds and
// closeness centrality.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"

namespace optibfs {

struct BipartiteReport {
  bool bipartite = false;
  /// Witness odd-cycle edge when not bipartite (u, v with equal BFS
  /// parity in the same component).
  vid_t odd_edge_u = kInvalidVertex;
  vid_t odd_edge_v = kInvalidVertex;
};

/// 2-colorability of the undirected view via BFS level parity: the
/// graph is bipartite iff no edge connects two vertices of equal level
/// parity within a component. Expects a symmetric graph (as produced by
/// EdgeList::symmetrize); runs one BFS per component.
BipartiteReport check_bipartite(const CsrGraph& graph,
                                const BFSOptions& options,
                                std::string_view algorithm = "BFS_CL");

struct DiameterBounds {
  /// Largest eccentricity actually observed (a lower bound on the true
  /// diameter; equal to it when the sweep converged).
  level_t lower = 0;
  /// 2x the eccentricity of the last midpoint (a valid upper bound for
  /// undirected graphs).
  level_t upper = 0;
  int bfs_runs = 0;
};

/// Double-sweep / 4-sweep diameter estimation (Magnien et al.): BFS from
/// a seed, re-BFS from the farthest vertex found, iterate. For
/// undirected graphs the lower bound is usually tight. `sweeps` bounds
/// the number of BFS runs.
DiameterBounds estimate_diameter(const CsrGraph& graph,
                                 const BFSOptions& options, int sweeps = 4,
                                 std::uint64_t seed = 1,
                                 std::string_view algorithm = "BFS_CL");

/// Closeness centrality: for each vertex v in `sources` (or all vertices
/// when sources is empty), n_reachable(v) <= 1 ? 0 : the Wasserman-Faust
/// normalized form
///     C(v) = ((r-1)/(n-1)) * ((r-1) / sum of distances from v)
/// where r = vertices reachable from v — well-defined on disconnected
/// graphs. Sources run as MS-BFS waves of up to 64 traversals sharing
/// their adjacency scans; a source id >= n throws std::out_of_range.
std::vector<double> closeness_centrality(
    const CsrGraph& graph, const BFSOptions& options,
    const std::vector<vid_t>& sources = {});

}  // namespace optibfs
