// What both serving front doors share (DESIGN.md section 4): the query
// vocabulary, the result shape, the level-array finalizer, and the
// configuration fields common to ScaleoutService (the serving core)
// and BfsService (its one-tenant, one-replica configuration).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/csr_graph.hpp"

namespace optibfs {

enum class QueryKind {
  kDistance,  ///< hops source -> target (or the full array if no target)
  kPath,      ///< one shortest path source -> target
  kLevelSet,  ///< every vertex at exactly `depth` hops from source
  // Kernel-typed kinds (DESIGN.md section 11): answered from a
  // per-version kernel memo shared across queries and replicas,
  // recomputed on the current CSR ∪ delta snapshot after updates.
  kComponents,  ///< connected component of `source` (CC kernel)
  kCoreNumber,  ///< coreness of `source` (KCORE kernel)
  kRankTopK,    ///< top-`topk` vertices by PageRank (PRDELTA kernel)
};

enum class QueryStatus {
  kOk,
  kRejectedQueueFull,  ///< backpressure: admission queue at capacity
  kTimeout,            ///< deadline expired while queued
  kStaleGraph,         ///< graph replaced (or tenant removed) before it ran
  kShutdown,           ///< service destroyed with the query still queued
  kInvalid,            ///< no graph registered / vertex out of range
  kQuotaRejected,      ///< tenant token bucket empty at admission
  kShed,               ///< load-shed: predicted queue wait exceeds slack
};

struct Query {
  QueryKind kind = QueryKind::kDistance;
  vid_t source = 0;
  /// kDistance / kPath target. kInvalidVertex on kDistance means "full
  /// distance array only" (the result's `levels` field).
  vid_t target = kInvalidVertex;
  level_t depth = 0;  ///< kLevelSet ring depth
  int topk = 10;      ///< kRankTopK result width (must be >= 1)
  /// Queue-wait budget in ms: < 0 means no deadline, 0 expires
  /// immediately unless served from cache (load-shed probe), > 0 bounds
  /// the time the query may wait for a replica.
  double timeout_ms = -1.0;
};

struct QueryResult {
  QueryStatus status = QueryStatus::kInvalid;
  /// kDistance/kPath: hops source -> target (kUnvisited if unreachable
  /// or no target was given).
  level_t distance = kUnvisited;
  /// kPath: source..target inclusive; empty if unreachable.
  std::vector<vid_t> path;
  /// kLevelSet: ascending vertex ids at exactly `depth` hops.
  std::vector<vid_t> members;
  /// kComponents: canonical component label (the smallest original
  /// vertex id in the component) and the component's vertex count.
  vid_t component = kInvalidVertex;
  std::uint64_t component_size = 0;
  /// kCoreNumber: the largest k such that `source` survives k-core
  /// peeling.
  std::uint32_t core = 0;
  /// kRankTopK: (vertex, rank) pairs by descending PageRank (ties by
  /// ascending id), truncated to the query's `topk`.
  std::vector<std::pair<vid_t, double>> topk;
  /// Full level array from the query's source (shared with the cache
  /// and with coalesced queries of the same source). Set iff kOk on the
  /// BFS-typed kinds; kernel-typed results never carry levels.
  std::shared_ptr<const std::vector<level_t>> levels;
  bool cache_hit = false;
  std::uint64_t graph_version = 0;
  double latency_ms = 0.0;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// Renders a BFS-typed (levels-answerable) query's result from a full
/// level array: distance lookup, lazy predecessor walk over the
/// snapshot's in-edge view for kPath, ring collection for kLevelSet.
/// Kernel-typed kinds return with the levels attached but no
/// kind-specific fields (the replicas answer those from a
/// SharedKernelMemo instead).
QueryResult finalize_levels_query(
    const Query& query, const GraphSnapshot& snapshot, std::uint64_t version,
    std::shared_ptr<const std::vector<level_t>> levels, bool cache_hit);

/// Configuration both front doors declare once (DESIGN.md section 4).
struct ServingConfig {
  /// W: max distinct sources one replica claim coalesces into one
  /// MS-BFS wave, clamped to [1, MsBfsSession::kMaxBatch]; queries for
  /// a source already in the claim ride along. 1 degenerates to
  /// one-query-at-a-time dispatch (the bench baseline).
  int max_batch = 64;
  /// Per-tenant admission-queue bound; submissions beyond it are
  /// rejected (kRejectedQueueFull). 0 rejects everything not served by
  /// the cache.
  std::size_t max_queue = 1024;
  /// Result-cache byte budget, shared by every tenant (rows are keyed
  /// by content fingerprint); 0 disables caching.
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Compact a tenant's delta overlay back into a fresh CSR once it
  /// exceeds this fraction of the base edge count
  /// (DynamicGraph::Config::compact_threshold). <= 0 never compacts.
  double compact_threshold = 0.125;
  /// Registry name of the batch-of-1 engine — the strict-vs-relaxed
  /// choice: any level-synchronous name (BFS_CL_H by default) or the
  /// asynchronous BFS_ASYNC for high-diameter graphs where barriers x
  /// diameter dominate. Validated at registration and recorded in
  /// ServiceStats::single_source_engine.
  std::string single_source_engine = "BFS_CL_H";
  /// Vertex-reorder preprocessing applied to every registered graph
  /// (CsrGraph::reorder). kNone lets registration probe the degree
  /// distribution instead: scale-free graphs (max degree >> mean with a
  /// plausible power-law exponent, n >= 32768) are served under
  /// kHubCluster, everything else — and every mmap-backed graph — as-is.
  /// Queries, results and cached level arrays stay in the caller's
  /// original vertex IDs either way. The resolved policy is recorded in
  /// ServiceStats::reorder_policy.
  ReorderPolicy reorder = ReorderPolicy::kNone;
  /// Engine tuning knobs, used as-is by every engine a tenant runs:
  /// the batch-of-1 engine, MS-BFS waves, kernel-memo fills and the
  /// repair engines (num_threads is overridden by the front door's team
  /// width). bfs.storage_budget_bytes (DESIGN.md §12) also caps each
  /// registered graph's storage backend and the files load_graph_file
  /// opens; heap graphs ignore it.
  BFSOptions bfs;
};

}  // namespace optibfs
