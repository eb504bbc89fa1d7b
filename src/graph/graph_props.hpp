// Structural graph statistics (the Table IV columns).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace optibfs {

struct DegreeStats {
  vid_t min = 0;
  vid_t max = 0;
  double mean = 0.0;
  /// Number of vertices with out-degree 0.
  vid_t isolated = 0;
  /// histogram[k] = number of vertices whose degree falls in bucket
  /// [2^k, 2^(k+1)); bucket 0 holds degrees 0 and 1.
  std::vector<eid_t> log2_histogram;
};

DegreeStats degree_stats(const CsrGraph& g);

/// Least-squares slope of log(count) vs log(degree) over the non-empty
/// histogram buckets — a quick power-law exponent estimate. Returns 0 if
/// fewer than two buckets are populated.
double power_law_exponent_estimate(const DegreeStats& stats);

/// Number of vertices reachable from `source` (including the source).
vid_t reachable_count(const CsrGraph& g, vid_t source);

/// Number of BFS levels explored from `source` (the paper's "diameter
/// explored by the BFS": the eccentricity of the source within its
/// reachable set). Returns 0 for an out-of-range source.
level_t bfs_depth(const CsrGraph& g, vid_t source);

/// Maximum bfs_depth over `samples` deterministic sources — the Table IV
/// "diameter" column (paper: max diameter explored by the BFS).
level_t sampled_bfs_diameter(const CsrGraph& g, int samples,
                             std::uint64_t seed);

/// Structural identity of a graph, used by the query service's
/// result-cache keys (DESIGN.md section 9): mixes n, m, and per-vertex
/// adjacency sets. Two properties matter for the cache:
///  * reorder-invariant — vertices are addressed and hashed in
///    *original* IDs with a commutative per-neighbor mix, so a graph
///    and any CsrGraph::reorder copy of it fingerprint identically
///    (cached level arrays are in original IDs and stay valid across a
///    policy change);
///  * content-sensitive — every vertex is hashed in one O(n + m) pass,
///    so any edge-set edit moves the value (up to 64-bit hash
///    collisions); cache retention across re-registration relies on it.
std::uint64_t structural_fingerprint(const CsrGraph& g);

/// splitmix64-style combiner shared by the fingerprint chain (exposed
/// so DynamicGraph's batch hashing and tests agree on the mixing).
constexpr std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t x = h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace optibfs
