#include "graph/graph_props.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "runtime/rng.hpp"

namespace optibfs {
namespace {

/// Minimal internal BFS: returns (levels, max level). Kept local so the
/// graph layer does not depend on the algorithm layer above it.
std::pair<std::vector<level_t>, level_t> plain_bfs(const CsrGraph& g,
                                                   vid_t source) {
  std::vector<level_t> level(g.num_vertices(), kUnvisited);
  level_t depth = 0;
  if (source >= g.num_vertices()) return {std::move(level), 0};
  std::queue<vid_t> frontier;
  level[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const vid_t v = frontier.front();
    frontier.pop();
    depth = std::max(depth, level[v]);
    for (vid_t w : g.out_neighbors(v)) {
      if (level[w] == kUnvisited) {
        level[w] = level[v] + 1;
        frontier.push(w);
      }
    }
  }
  return {std::move(level), depth};
}

}  // namespace

DegreeStats degree_stats(const CsrGraph& g) {
  DegreeStats stats;
  const vid_t n = g.num_vertices();
  if (n == 0) return stats;
  stats.min = g.out_degree(0);
  for (vid_t v = 0; v < n; ++v) {
    const vid_t d = g.out_degree(v);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (d == 0) ++stats.isolated;
    const std::size_t bucket =
        d <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(d) - 1);
    if (bucket >= stats.log2_histogram.size()) {
      stats.log2_histogram.resize(bucket + 1, 0);
    }
    ++stats.log2_histogram[bucket];
  }
  stats.mean = static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return stats;
}

double power_law_exponent_estimate(const DegreeStats& stats) {
  // With count(degree d) ~ d^-gamma, the mass of log2-bucket k
  // (degrees [2^k, 2^(k+1))) is ~ 2^(k(1-gamma)), so the log-log bucket
  // slope is 1-gamma and gamma = 1 - slope. Buckets below degree 2 are
  // skipped (bucket 0 mixes degrees 0 and 1).
  double sum_x = 0, sum_y = 0, sum_xx = 0, sum_xy = 0;
  int points = 0;
  for (std::size_t k = 1; k < stats.log2_histogram.size(); ++k) {
    const eid_t count = stats.log2_histogram[k];
    if (count == 0) continue;
    const double x = static_cast<double>(k);
    const double y = std::log2(static_cast<double>(count));
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_xy += x * y;
    ++points;
  }
  if (points < 2) return 0.0;
  const double denom = points * sum_xx - sum_x * sum_x;
  if (denom == 0.0) return 0.0;
  const double slope = (points * sum_xy - sum_x * sum_y) / denom;
  return 1.0 - slope;
}

vid_t reachable_count(const CsrGraph& g, vid_t source) {
  const auto [level, depth] = plain_bfs(g, source);
  (void)depth;
  return static_cast<vid_t>(
      std::count_if(level.begin(), level.end(),
                    [](level_t l) { return l != kUnvisited; }));
}

level_t bfs_depth(const CsrGraph& g, vid_t source) {
  return plain_bfs(g, source).second;
}

level_t sampled_bfs_diameter(const CsrGraph& g, int samples,
                             std::uint64_t seed) {
  if (g.num_vertices() == 0) return 0;
  Xoshiro256 rng(seed);
  level_t best = 0;
  for (int i = 0; i < samples; ++i) {
    vid_t source = static_cast<vid_t>(rng.next_below(g.num_vertices()));
    // Prefer sources that can actually reach something.
    for (int tries = 0; tries < 32 && g.out_degree(source) == 0; ++tries) {
      source = static_cast<vid_t>(rng.next_below(g.num_vertices()));
    }
    best = std::max(best, bfs_depth(g, source));
  }
  return best;
}

std::uint64_t structural_fingerprint(const CsrGraph& g) {
  const vid_t n = g.num_vertices();
  std::uint64_t h = fingerprint_mix(0x0D1BFA17ull, n);
  h = fingerprint_mix(h, g.num_edges());
  for (vid_t probe = 0; probe < n; ++probe) {
    // Vertex addressed in original IDs; the neighbor mix is a commutative
    // sum so the adjacency *set* is hashed, not the (reorder-dependent)
    // adjacency order.
    const vid_t v = g.to_internal(probe);
    std::uint64_t set_hash = 0;
    for (const vid_t w : g.out_neighbors(v)) {
      set_hash += fingerprint_mix(probe, g.to_original(w));
    }
    h = fingerprint_mix(h, fingerprint_mix(set_hash, g.out_degree(v)));
  }
  return h;
}

}  // namespace optibfs
