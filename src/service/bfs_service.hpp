// BFS query service: one graph served by the serving core
// (scaleout/scaleout_service, DESIGN.md section 4) as a one-tenant,
// one-replica ScaleoutService that never sheds.
//
// The library's engines answer one source at a time; a service fronting
// "millions of users" sees a stream of cheap point queries instead —
// distance(src), path(src, dst), level-set(src) — and concurrent
// traversals of the same graph overlap heavily. The replica therefore
// coalesces queued queries into MS-BFS waves of up to max_batch
// distinct sources (core/msbfs), runs a wave of one on the batch-of-1
// engine, and repeat sources are answered from a versioned result
// cache at submit time. Updates apply on the core's mutator thread
// while waves in flight stay pinned on copy-on-write snapshots. Every
// count the replica makes (batch-width histogram, cache hit rate,
// latency percentiles) is exported through ServiceStats.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "graph/csr_graph.hpp"
#include "scaleout/scaleout_service.hpp"
#include "service/service_stats.hpp"
#include "service/serving.hpp"

namespace optibfs {

struct ServiceConfig : ServingConfig {
  /// Width of the one replica's team: MS-BFS waves, the batch-of-1
  /// engine, and the repair engine.
  int num_threads = 4;
};

class BfsService {
 public:
  explicit BfsService(ServiceConfig config = {});

  BfsService(const BfsService&) = delete;
  BfsService& operator=(const BfsService&) = delete;

  /// Registers (or replaces) the served graph and returns the new graph
  /// version; versions strictly increase across register_graph and
  /// apply_updates. Queries still queued against the previous graph
  /// complete with kStaleGraph, queries already executing answer at the
  /// old version. Cached results are kept or dropped by *content*: the
  /// cache is keyed by a reorder-invariant structural fingerprint
  /// (DynamicGraph::content_fingerprint), so re-registering the same
  /// graph — e.g. pre-reordered — keeps every row, while any content
  /// change drops them.
  std::uint64_t register_graph(std::shared_ptr<const CsrGraph> graph);

  /// Registers a graph straight from a binary-CSR-v2 file (DESIGN.md
  /// §12). With kMmap (the default) the graph is demand-paged under
  /// ServiceConfig::bfs.storage_budget_bytes instead of copied into RAM
  /// and served unreordered (pre-reorder the file offline; an explicit
  /// ServiceConfig::reorder still wins and falls back to a heap copy).
  std::uint64_t register_graph_file(
      const std::string& path,
      storage::StorageKind kind = storage::StorageKind::kMmap);

  std::uint64_t graph_version() const;

  /// Applies a batch of edge updates and returns the new graph version.
  /// The mutator applies it while waves in flight stay pinned on their
  /// snapshot; queued queries answer at the new version; cached results
  /// are repaired in place by the incremental engine where the batch
  /// affects them, revalidated untouched where it does not, and dropped
  /// only when a deletion cone is too large to repair. Throws
  /// std::invalid_argument with no graph registered (or when a
  /// register_graph replaced the graph while the batch was applying) and
  /// std::out_of_range for updates naming vertices outside the graph.
  std::uint64_t apply_updates(UpdateBatch batch);

  /// Async form of apply_updates (resolves to the new graph version).
  std::future<std::uint64_t> submit_updates(UpdateBatch batch);

  /// Asynchronous entry point: validates and enqueues (or serves from
  /// cache / rejects) and returns a future that always completes.
  std::future<QueryResult> submit(const Query& query);

  /// Blocking conveniences.
  QueryResult query(const Query& q) { return submit(q).get(); }
  QueryResult distance(vid_t source, vid_t target = kInvalidVertex);
  QueryResult path(vid_t source, vid_t target);
  QueryResult level_set(vid_t source, level_t depth);

  /// Kernel-typed conveniences (DESIGN.md section 11), answered from a
  /// per-version kernel memo that the next update batch drops
  /// (recompute-on-snapshot repair).
  QueryResult components_of(vid_t v);
  QueryResult core_number(vid_t v);
  QueryResult rank_topk(int k);

  ServiceStats stats() const;

  /// Scratch-arena accounting of the graph's engines (batch-of-1 engine
  /// + MS-BFS session): after one warmup dispatch per path, every
  /// further dispatch is a reuse — the steady-state zero-allocation
  /// claim, made checkable. Exact at a quiescent point.
  ArenaStats arena_stats() const;

 private:
  std::mutex register_mutex_;  ///< serializes register_graph calls
  /// The one tenant; 0 until the first registration, fixed after it.
  std::atomic<scaleout::TenantId> tenant_{0};
  scaleout::ScaleoutService core_;
};

}  // namespace optibfs
