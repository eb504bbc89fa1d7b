// Quickstart: build a graph, run the paper's flagship algorithm
// (BFS_WSL — lock-free work-stealing with scale-free handling), and
// inspect the result.
//
//   ./quickstart [scale] [edge_factor] [threads]
#include <cstdlib>
#include <iostream>

#include "checked_args.hpp"
#include "optibfs.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  using examples::positional;
  const int scale = positional(argc, argv, 1, "scale", 14, 1);
  const int edge_factor = positional(argc, argv, 2, "edge_factor", 16, 1);
  const int threads = positional(argc, argv, 3, "threads", 4, 1);

  std::cout << "Generating a Graph500 RMAT graph (scale=" << scale
            << ", edge factor=" << edge_factor << ")...\n";
  const CsrGraph graph = CsrGraph::from_edges(
      gen::rmat(scale, edge_factor, /*seed=*/20130527));
  std::cout << "  " << graph.num_vertices() << " vertices, "
            << graph.num_edges() << " edges, max degree "
            << graph.max_out_degree() << "\n\n";

  BFSOptions options;
  options.num_threads = threads;
  auto bfs = make_bfs("BFS_WSL", graph, options);

  const vid_t source = sample_sources(graph, 1, /*seed=*/1).front();
  std::cout << "Running " << bfs->name() << " with " << threads
            << " threads from source " << source << "...\n";
  Timer timer;
  const BFSResult result = bfs->run(source);
  const double ms = timer.elapsed_ms();

  std::cout << "  visited " << result.vertices_visited << " vertices in "
            << result.num_levels << " levels, " << ms << " ms\n"
            << "  duplicate explorations (the optimism tax): "
            << result.duplicate_explorations() << "\n"
            << "  steal attempts: " << result.steal_stats.total_attempts()
            << " (" << result.steal_stats.successful << " successful)\n";

  std::cout << "\nValidating against the serial reference...\n";
  const VerifyReport report = verify_against_serial(graph, source, result);
  if (!report.ok) {
    std::cerr << "  FAILED: " << report.error << '\n';
    return 1;
  }
  std::cout << "  OK — levels match the serial BFS exactly.\n";

  // Level histogram: the frontier profile that drives load balancing.
  std::vector<std::uint64_t> per_level(
      static_cast<std::size_t>(result.num_levels), 0);
  for (vid_t v = 0; v < graph.num_vertices(); ++v) {
    if (result.level[v] != kUnvisited) {
      ++per_level[static_cast<std::size_t>(result.level[v])];
    }
  }
  std::cout << "\nFrontier sizes per level:\n";
  for (std::size_t l = 0; l < per_level.size(); ++l) {
    std::cout << "  level " << l << ": " << per_level[l] << '\n';
  }
  return 0;
}
