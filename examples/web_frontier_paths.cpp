// Web-graph shortest paths: run several engines on an RMAT "web crawl"
// graph, extract actual shortest paths from the parent arrays, and
// cross-check that different (nondeterministic-parent) engines agree on
// path *lengths* even when they disagree on the paths themselves.
//
// Each engine is constructed ONCE and reused across every query source
// — the pattern the BFS query service builds on: engine construction
// spins up buffers and a thread team, so paying it per query would
// dominate the traversal on warm caches.
//
//   ./web_frontier_paths [scale] [threads]
#include <cstdlib>
#include <iostream>

#include "checked_args.hpp"
#include "optibfs.hpp"

namespace {

using namespace optibfs;

/// Walks parent pointers from v back to the source.
std::vector<vid_t> extract_path(const BFSResult& result, vid_t v) {
  std::vector<vid_t> path;
  while (true) {
    path.push_back(v);
    if (result.parent[v] == v) break;  // reached the source
    v = result.parent[v];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using optibfs::examples::positional;
  const int scale = positional(argc, argv, 1, "scale", 15, 1);
  const int threads = positional(argc, argv, 2, "threads", 4, 1);

  std::cout << "Crawl graph: Graph500 RMAT scale " << scale << "...\n";
  const CsrGraph graph =
      CsrGraph::from_edges(gen::rmat(scale, 12, /*seed=*/424242));
  const auto sources = sample_sources(graph, 3, 3);

  BFSOptions options;
  options.num_threads = threads;

  // Engines with very different parent nondeterminism characteristics.
  // Built once, up front; the per-source loop below only calls run().
  const char* engine_names[] = {"sbfs", "BFS_CL", "BFS_WSL", "PBFS"};
  std::vector<std::unique_ptr<ParallelBFS>> engines;
  for (const char* name : engine_names) {
    engines.push_back(make_bfs(name, graph, options));
  }

  for (const vid_t source : sources) {
    std::cout << "\n=== crawl frontier from page " << source << " ===\n";
    std::vector<BFSResult> results(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      Timer timer;
      engines[e]->run(source, results[e]);
      std::cout << "  " << engine_names[e] << ": " << timer.elapsed_ms()
                << " ms, " << results[e].vertices_visited
                << " pages reachable\n";
    }

    // Pick a handful of far-away target pages and compare.
    std::cout << "  shortest hop counts (every engine must agree):\n";
    const BFSResult& reference = results.front();
    int shown = 0;
    for (vid_t v = 0; v < graph.num_vertices() && shown < 5; ++v) {
      if (reference.level[v] < 3) continue;  // only interesting targets
      ++shown;
      std::cout << "    page " << v << ": ";
      bool agree = true;
      for (std::size_t e = 0; e < results.size(); ++e) {
        if (results[e].level[v] != reference.level[v]) agree = false;
      }
      const auto path = extract_path(results.back(), v);
      std::cout << reference.level[v] << " hops "
                << (agree ? "(all engines agree)" : "(MISMATCH!)")
                << "  e.g. via:";
      for (const vid_t hop : path) std::cout << ' ' << hop;
      std::cout << '\n';
      if (!agree) return 1;
      // The extracted path length must equal the level.
      if (path.size() != static_cast<std::size_t>(reference.level[v]) + 1) {
        std::cerr << "path length inconsistent with level!\n";
        return 1;
      }
    }
  }

  std::cout << "\nParent trees may differ between engines (the paper's "
               "arbitrary-concurrent-write rule) but hop counts are "
               "deterministic — that is the correctness contract.\n";
  return 0;
}
