#include "apps/graph_metrics.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "harness/source_sampler.hpp"

namespace optibfs {

BipartiteReport check_bipartite(const CsrGraph& graph,
                                const BFSOptions& options,
                                std::string_view algorithm) {
  const vid_t n = graph.num_vertices();
  BipartiteReport report;
  report.bipartite = true;
  if (n == 0) return report;

  auto engine = make_bfs(algorithm, graph, options);
  std::vector<level_t> color(n, kUnvisited);
  BFSResult bfs;
  for (vid_t root = 0; root < n; ++root) {
    if (color[root] != kUnvisited) continue;
    if (graph.out_degree(root) == 0) {
      color[root] = 0;
      continue;
    }
    engine->run(root, bfs);
    for (vid_t v = 0; v < n; ++v) {
      if (bfs.level[v] != kUnvisited && color[v] == kUnvisited) {
        color[v] = bfs.level[v] & 1;
      }
    }
  }
  // One edge scan: equal parity endpoints witness an odd cycle.
  for (vid_t u = 0; u < n && report.bipartite; ++u) {
    for (const vid_t v : graph.out_neighbors(u)) {
      if (u == v) {
        // self-loop: an odd cycle of length 1
        report.bipartite = false;
        report.odd_edge_u = u;
        report.odd_edge_v = v;
        break;
      }
      if (color[u] == color[v]) {
        report.bipartite = false;
        report.odd_edge_u = u;
        report.odd_edge_v = v;
        break;
      }
    }
  }
  return report;
}

DiameterBounds estimate_diameter(const CsrGraph& graph,
                                 const BFSOptions& options, int sweeps,
                                 std::uint64_t seed,
                                 std::string_view algorithm) {
  DiameterBounds bounds;
  if (graph.num_vertices() == 0) return bounds;
  auto engine = make_bfs(algorithm, graph, options);
  BFSResult bfs;

  vid_t current = sample_sources(graph, 1, seed).front();
  bounds.upper = std::numeric_limits<level_t>::max();
  for (int sweep = 0; sweep < std::max(1, sweeps); ++sweep) {
    engine->run(current, bfs);
    ++bounds.bfs_runs;
    const level_t ecc = bfs.num_levels - 1;
    bounds.lower = std::max(bounds.lower, ecc);
    // For a symmetric graph, 2*ecc(v) bounds the diameter of v's
    // component from above; keep the tightest one seen.
    bounds.upper = std::min(bounds.upper, 2 * ecc);
    bounds.upper = std::max(bounds.upper, bounds.lower);
    // Farthest vertex becomes the next seed (the double-sweep step).
    vid_t farthest = current;
    for (vid_t v = 0; v < graph.num_vertices(); ++v) {
      if (bfs.level[v] == ecc) {
        farthest = v;
        break;
      }
    }
    if (farthest == current) break;  // converged / singleton component
    current = farthest;
  }
  return bounds;
}

std::vector<double> closeness_centrality(const CsrGraph& graph,
                                         const BFSOptions& options,
                                         const std::vector<vid_t>& sources) {
  const vid_t n = graph.num_vertices();
  std::vector<double> closeness(n, 0.0);
  if (n == 0) return closeness;

  std::vector<vid_t> all;
  if (sources.empty()) {
    all.resize(n);
    std::iota(all.begin(), all.end(), vid_t{0});
  }
  const std::vector<vid_t>& requested = sources.empty() ? all : sources;

  constexpr std::size_t kWave = MsBfsSession::kMaxBatch;
  MsBfsSession session(graph, options);
  MsBfsResult wave;
  std::vector<vid_t> batch;
  for (std::size_t begin = 0; begin < requested.size(); begin += kWave) {
    const std::size_t end = std::min(begin + kWave, requested.size());
    batch.assign(requested.begin() + static_cast<std::ptrdiff_t>(begin),
                 requested.begin() + static_cast<std::ptrdiff_t>(end));
    session.run(batch, wave);
    for (std::size_t s = 0; s < batch.size(); ++s) {
      std::uint64_t reachable = 0;
      std::uint64_t distance_sum = 0;
      for (const level_t d : wave.distance[s]) {
        if (d != kUnvisited) {
          ++reachable;
          distance_sum += static_cast<std::uint64_t>(d);
        }
      }
      if (reachable <= 1) continue;
      const double r = static_cast<double>(reachable);
      closeness[batch[s]] = (r - 1.0) / static_cast<double>(n - 1) *
                            ((r - 1.0) / static_cast<double>(distance_sum));
    }
  }
  return closeness;
}

}  // namespace optibfs
