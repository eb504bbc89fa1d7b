// Whole-graph analytics — the applications the paper's introduction
// motivates (connected components, shortest paths, betweenness
// centrality, diameter), all running lock-free: components on the
// optimistic CC kernel, the rest on the optimistic BFS engines.
//
//   ./graph_analytics [n] [m] [threads]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "apps/betweenness.hpp"
#include "apps/graph_metrics.hpp"
#include "checked_args.hpp"
#include "optibfs.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  using examples::positional;
  const vid_t n = positional<vid_t>(argc, argv, 1, "n", 50000, 1);
  const eid_t m = positional<eid_t>(argc, argv, 2, "m", 400000, 0);
  const int threads = positional(argc, argv, 3, "threads", 4, 1);

  std::cout << "Collaboration-network analytics demo\n";
  EdgeList edges = gen::power_law(n, m, 2.4, /*seed=*/1234);
  edges.symmetrize();  // collaboration is mutual
  const CsrGraph graph = CsrGraph::from_edges(edges);
  graph.transpose();  // pre-build for the centrality pull passes
  std::cout << "  graph: " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " directed edges (symmetric)\n\n";

  BFSOptions options;
  options.num_threads = threads;

  Timer timer;
  // CC labels each vertex with the smallest id in its component, so a
  // component is a vertex that is its own label.
  kernels::KernelResult cc;
  kernels::make_kernel("CC", graph, options)->run(cc);
  std::vector<vid_t> component_size(graph.num_vertices(), 0);
  vid_t components = 0;
  for (vid_t v = 0; v < graph.num_vertices(); ++v) {
    ++component_size[cc.labels[v]];
    if (cc.labels[v] == v) ++components;
  }
  std::cout << "[components] " << components << " components, "
            << "largest has "
            << *std::max_element(component_size.begin(),
                                 component_size.end())
            << " vertices (" << timer.elapsed_ms() << " ms)\n";

  timer.reset();
  const DiameterBounds diameter = estimate_diameter(graph, options);
  std::cout << "[diameter]   between " << diameter.lower << " and "
            << diameter.upper << " (double-sweep, " << diameter.bfs_runs
            << " BFS runs, " << timer.elapsed_ms() << " ms)\n";

  timer.reset();
  const BipartiteReport bipartite = check_bipartite(graph, options);
  std::cout << "[bipartite]  " << (bipartite.bipartite ? "yes" : "no");
  if (!bipartite.bipartite) {
    std::cout << " (odd-cycle witness edge " << bipartite.odd_edge_u << "-"
              << bipartite.odd_edge_v << ")";
  }
  std::cout << " (" << timer.elapsed_ms() << " ms)\n";

  timer.reset();
  BetweennessOptions bc_options;
  bc_options.bfs = options;
  bc_options.num_sources = 32;  // Brandes-Pich sampling
  bc_options.seed = 7;
  const auto centrality = betweenness_centrality(graph, bc_options);
  std::cout << "[centrality] sampled Brandes over 32 sources ("
            << timer.elapsed_ms() << " ms); top connectors:\n";
  std::vector<vid_t> ranking(graph.num_vertices());
  for (vid_t v = 0; v < graph.num_vertices(); ++v) ranking[v] = v;
  std::partial_sort(ranking.begin(), ranking.begin() + 5, ranking.end(),
                    [&](vid_t a, vid_t b) {
                      return centrality[a] > centrality[b];
                    });
  for (int i = 0; i < 5; ++i) {
    const vid_t v = ranking[static_cast<std::size_t>(i)];
    std::cout << "    #" << i + 1 << "  vertex " << v << "  score "
              << std::fixed << std::setprecision(0) << centrality[v]
              << "  degree " << graph.out_degree(v) << '\n';
  }

  const vid_t hub = ranking[0];
  BFSResult paths;
  make_bfs("BFS_WSL", graph, options)->run(hub, paths);
  const level_t eccentricity = paths.num_levels - 1;
  std::vector<vid_t> ring_size(static_cast<std::size_t>(paths.num_levels), 0);
  for (const level_t hops : paths.level) {
    if (hops != kUnvisited) ++ring_size[static_cast<std::size_t>(hops)];
  }
  std::cout << "\n[paths] from top connector " << hub << ": eccentricity "
            << eccentricity << "; ring sizes:";
  for (level_t hop = 1; hop <= std::min<level_t>(4, eccentricity); ++hop) {
    std::cout << "  " << hop
              << "-hop=" << ring_size[static_cast<std::size_t>(hop)];
  }
  std::cout << '\n';
  return 0;
}
