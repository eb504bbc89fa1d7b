// The serving core (DESIGN.md section 4): multi-graph tenancy, replica
// engine teams running MS-BFS waves, copy-on-write update epochs and
// continuous queries. BfsService (service/bfs_service) is its
// one-tenant, one-replica configuration.
//
//   callers --submit(tenant, q)--> per-tenant queues --+
//                        (token-bucket quota,          |  pull-based
//                         bounded, deadline-stamped)   v  dispatch
//                                        ready list <--> N replica threads
//                                                   (one ThreadTeam each)
//   updates --submit_updates--> mutator thread: apply -> epoch publish
//                                -> cache migration -> watch rollforward
//
// * Registration, once per graph: the storage budget, the reorder
//   probe, the transpose, and the dynamic graph the tenant's updates go
//   through; it starts no thread. Every engine a tenant runs is built
//   from ServingConfig::bfs as configured. replace_graph() re-runs it
//   for a live tenant.
// * Tenancy: each tenant owns a graph, a token-bucket quota and a
//   bounded admission queue. Quota exhaustion answers kQuotaRejected at
//   the front door; a full queue answers kRejectedQueueFull; a repeat
//   source for the tenant's current edge set is answered from the
//   shared result cache without touching a queue.
// * Dispatch: idle replicas *pull* the oldest ready tenant and claim
//   the queue's longest prefix holding at most max_batch distinct
//   sources (queries for a source already in the claim ride along).
//   A tenant whose queue outlives one claim is re-queued immediately,
//   so two replicas may serve the same tenant's claims concurrently.
// * Execution: a claim runs as one MS-BFS wave on the replica's team;
//   a single distinct source runs on the configured batch-of-1 engine
//   instead (BFS_ASYNC included); while the snapshot has a delta,
//   sources go through the incremental engine's recompute. Every one of
//   these, and the kernel-memo runs the replica performs, borrows the
//   replica's one ThreadTeam. Engines belong to the replica and are
//   rebuilt only when the base CSR they serve changes.
// * Epochs: a replica pins its roster slot (relaxed plain store) with
//   the epoch version it serves; the single mutator applies the next
//   version *while* readers are pinned — copy-on-write snapshots keep
//   every claimed epoch alive, and the roster records how many applies
//   overlapped live readers (kUpdatesOverlappedReads).
// * Shedding (optional): each replica keeps an EWMA of its per-query
//   execution time; at claim time it walks the claim in ascending-slack
//   order and sheds (kShed) any deadline query whose slack cannot cover
//   the predicted work queued in front of it.
// * Continuous queries: watch_distance(s, t) subscriptions are answered
//   as a byproduct of each update batch (scaleout/continuous_query),
//   re-notifying only when the watched distance actually changes.
//
// Lock census (the paper's discipline governs traversal hot paths; the
// front-of-house exemptions are deliberate and bounded): the admission
// mutex (tenant map, queues, ready list, epoch swaps), the stats mutex
// (latency reservoir, batch histogram), each tenant's watch-table
// mutex, the shared result cache's internal mutex, and each epoch's
// kernel-memo mutex (blocking on it IS the replica-sharing mechanism).
// Traversals — waves, single-source runs, recomputes, repairs, kernel
// runs — use the engines' lock-free optimistic machinery; counters use
// relaxed per-slot bumps because stats() may aggregate while every
// writer is live.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/msbfs.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/thread_team.hpp"
#include "scaleout/scaleout_stats.hpp"
#include "scaleout/tenant.hpp"
#include "service/result_cache.hpp"
#include "service/service_stats.hpp"
#include "service/serving.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/recorder.hpp"

namespace optibfs::scaleout {

struct ScaleoutConfig : ServingConfig {
  /// Replica engine teams (dispatch width), clamped to [1, 32].
  int replicas = 2;
  /// Worker threads per replica team (and for the mutator's repair
  /// engine), pinned like the engines' when bfs.pin_threads.
  int threads_per_replica = 2;
  /// Deadline-aware load shedding (see header). Off answers every
  /// admitted query even when hopelessly late.
  bool shedding = true;
};

class ScaleoutService {
 public:
  explicit ScaleoutService(ScaleoutConfig config = {});
  ~ScaleoutService();

  ScaleoutService(const ScaleoutService&) = delete;
  ScaleoutService& operator=(const ScaleoutService&) = delete;

  /// Registers a tenant serving `graph` under `quota` and returns its
  /// id; its first epoch is version 1. Throws std::invalid_argument on
  /// a null graph or an unknown ServingConfig::single_source_engine.
  TenantId register_tenant(std::string name,
                           std::shared_ptr<const CsrGraph> graph,
                           TenantQuota quota = {});

  /// Serves `graph` in place of a tenant's current one, under the same
  /// id and quota, at the next version. Queries still queued complete
  /// with kStaleGraph, claims in flight finish against the old graph,
  /// and watches are dropped (their vertices may not exist any more).
  /// Cached rows survive iff the content fingerprint is unchanged. An
  /// update racing the replacement either lands before it or fails
  /// like an update for an unknown tenant. Throws std::invalid_argument
  /// for an unknown tenant or a null graph.
  std::uint64_t replace_graph(TenantId tenant,
                              std::shared_ptr<const CsrGraph> graph);

  /// Opens a binary-CSR-v2 file (DESIGN.md §12) under the configured
  /// storage budget, for register_tenant / replace_graph. With kMmap
  /// the graph is demand-paged instead of copied into RAM; a
  /// permutation persisted in the file keeps queries in original IDs.
  std::shared_ptr<const CsrGraph> load_graph_file(
      const std::string& path, storage::StorageKind kind) const;

  /// Removes a tenant. Queries still queued complete with kStaleGraph;
  /// claims already in flight on a replica finish normally against the
  /// detached context (deregistration never blocks on them); updates
  /// still queued for it fail with std::invalid_argument. Returns false
  /// for an unknown id.
  bool deregister_tenant(TenantId tenant);

  /// Current epoch version of a tenant's graph (0 = unknown tenant).
  std::uint64_t graph_version(TenantId tenant) const;

  /// Asynchronous entry point: quota + validation + cache fast path at
  /// the front door, then the tenant queue. The future always resolves.
  std::future<QueryResult> submit(TenantId tenant, const Query& query);

  QueryResult query(TenantId tenant, const Query& q) {
    return submit(tenant, q).get();
  }
  QueryResult distance(TenantId tenant, vid_t source,
                       vid_t target = kInvalidVertex);

  /// Queues an update batch for the mutator thread; resolves to the
  /// tenant's new epoch version. Applies *concurrently* with replica
  /// reads (no fleet quiescence). Fails with std::runtime_error after
  /// shutdown and std::invalid_argument for an unknown tenant —
  /// including one deregistered between submit and apply — or for
  /// vertices outside the graph (std::out_of_range).
  std::future<std::uint64_t> submit_updates(TenantId tenant,
                                            UpdateBatch batch);
  std::uint64_t apply_updates(TenantId tenant, UpdateBatch batch);

  /// Registers a continuous query on tenant's graph: `callback` fires
  /// (on the mutator thread, outside service locks) whenever an update
  /// batch changes dist(source, target) — including to/from
  /// unreachable. A callback that throws is ignored: its batch and
  /// every other watch still complete. Throws std::invalid_argument for
  /// an unknown tenant or out-of-range vertices.
  WatchTicket watch_distance(TenantId tenant, vid_t source, vid_t target,
                             WatchCallback callback);
  bool unwatch(TenantId tenant, WatchId watch);

  /// Fleet-wide counters, latency, cache and topology figures; with a
  /// tenant id, also that tenant's resolved engine, prefetch picks,
  /// reorder policy and storage figures.
  ServiceStats stats(TenantId tenant = 0) const;

  /// Scratch-arena accounting of a tenant's replica engines (batch-of-1
  /// engine + MS-BFS session, summed over replicas): after one warmup
  /// a batch-of-1 dispatch is a reuse. A wave counts as an allocation
  /// every time, for the rows it hands to the cache; its scratch is
  /// reused once the session has been as deep. Exact at a quiescent
  /// point (no query in flight).
  ArenaStats arena_stats(TenantId tenant) const;

  int replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  using Clock = std::chrono::steady_clock;

  /// One engine team: a pull-dispatch thread, the ThreadTeam every
  /// traversal it runs borrows, and its reusable result buffers. All
  /// members are replica-thread-only except team.pinned_threads().
  struct Replica {
    explicit Replica(const ScaleoutConfig& config)
        : team(config.threads_per_replica, config.bfs.pin_threads) {}

    TeamHandle team;  ///< created with the service, never re-seated
    std::unique_ptr<IncrementalBfsEngine> engine;  ///< delta-aware path
    BFSResult single_out;
    MsBfsResult wave_out;
    std::vector<level_t> scratch;
    std::vector<vid_t> sources;  ///< distinct sources of the claim
    double ewma_ms = -1.0;  ///< per-query execution estimate; <0 = none
    telemetry::ThreadTrace trace;  ///< "scaleout.replica<r>" track
    std::thread thread;
  };

  /// Work one pull claimed: the tenant, the epoch it will be served
  /// against, and the queries moved out of the tenant queue.
  struct Claim {
    std::shared_ptr<TenantContext> tenant;
    std::shared_ptr<const TenantEpoch> epoch;
    std::vector<QueuedQuery> batch;
  };

  struct PendingUpdate {
    TenantId tenant = 0;
    UpdateBatch batch;
    std::promise<std::uint64_t> promise;
  };

  /// The registration pipeline, run once per graph: validates it,
  /// applies the storage budget, resolves the reorder policy, builds
  /// the transpose and the tenant's dynamic graph. The caller publishes
  /// the first epoch.
  std::shared_ptr<TenantContext> build_tenant(
      TenantId id, std::string name, std::shared_ptr<const CsrGraph> graph,
      TenantQuota quota) const;
  void replica_loop(int r);
  void mutator_loop();
  void execute_claim(int r, Claim& claim);
  void run_levels_queries(int r, const Claim& claim,
                          const std::vector<QueuedQuery*>& queries,
                          Clock::time_point exec_start);
  void run_kernel_queries(int r, const Claim& claim,
                          const std::vector<QueuedQuery*>& queries,
                          Clock::time_point exec_start);
  /// Replica r's engines for the claim's base CSR, (re)built on demand.
  ReplicaEngines& engines_for(int r, const Claim& claim);
  /// Applies one update end to end on the mutator thread: dynamic
  /// apply, epoch publish, cone-scoped cache migration, watch
  /// rollforward + notification dispatch.
  void apply_one(PendingUpdate& update);
  /// The registered context for `id`, or null. Requires mutex_.
  std::shared_ptr<TenantContext> find(TenantId id) const;
  /// Moves every query out of a tenant's queue. Requires mutex_.
  static std::vector<QueuedQuery> take_queue(TenantContext& tenant);
  /// Completes one query, bumping the status counter on `slot`.
  void complete(int slot, QueuedQuery& pending, QueryResult result);
  /// complete() for a query answered with `status` alone.
  void complete(int slot, QueuedQuery& pending, QueryStatus status);
  /// complete() for a query a replica executed, with its queue-wait and
  /// execute spans on the replica's trace track.
  void finish(int r, QueuedQuery& pending, QueryResult result,
              Clock::time_point exec_start);

  ScaleoutConfig config_;
  ResultCache cache_;  ///< shared across tenants and replicas
  /// Declared before tenants_ so tenant contexts (whose engines borrow
  /// replica teams) are destroyed first.
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex mutex_;  ///< admission: tenants/queues/ready/epochs
  std::condition_variable work_cv_;     ///< replicas wait here
  std::condition_variable mutator_cv_;  ///< mutator waits here
  /// Registered tenants. Contexts are shared so a claim taken before a
  /// deregistration or replacement finishes against the detached one.
  std::unordered_map<TenantId, std::shared_ptr<TenantContext>> tenants_;
  TenantId last_id_ = 0;
  std::deque<TenantId> ready_;  ///< tenants with queued queries, FIFO
  std::deque<PendingUpdate> update_queue_;
  bool shutdown_ = false;

  /// Slots: [0, R) replicas, R mutator, R+1 front door (submit paths).
  /// All bumps are relaxed — stats() aggregates while writers are live.
  telemetry::CounterRegistry counters_;
  int mutator_slot_ = 0;
  int front_slot_ = 0;

  mutable std::mutex stats_mutex_;
  LatencyReservoir latencies_;
  std::array<std::uint64_t, 65> batch_histogram_{};

  /// Mutator-thread-only engine: cache-row migration and watch
  /// rollforward repairs.
  std::unique_ptr<IncrementalBfsEngine> mutator_engine_;
  telemetry::ThreadTrace mutator_trace_;  ///< "scaleout.mutator" track
  std::thread mutator_;  ///< joined before replicas in the destructor
};

}  // namespace optibfs::scaleout
