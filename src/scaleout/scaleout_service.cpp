#include "scaleout/scaleout_service.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <stdexcept>

#include "core/registry.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_props.hpp"
#include "runtime/mem_topology.hpp"
#include "service/prefetch_tuner.hpp"

namespace optibfs::scaleout {

using enum telemetry::Counter;
using enum telemetry::EventName;

namespace {

/// EWMA smoothing for the per-replica execution-time estimate.
constexpr double kShedEwmaAlpha = 0.2;

ScaleoutConfig sanitized(ScaleoutConfig config) {
  config.replicas = std::clamp(config.replicas, 1, 32);
  config.threads_per_replica = std::max(1, config.threads_per_replica);
  config.max_batch =
      std::clamp(config.max_batch, 1, MsBfsSession::kMaxBatch);
  return config;
}

bool is_kernel_query(QueryKind kind) {
  return kind == QueryKind::kComponents || kind == QueryKind::kCoreNumber ||
         kind == QueryKind::kRankTopK;
}

bool is_valid(const Query& query, vid_t n) {
  if (query.source >= n) return false;
  switch (query.kind) {
    case QueryKind::kDistance:
      return query.target == kInvalidVertex || query.target < n;
    case QueryKind::kPath:
      return query.target < n;
    case QueryKind::kLevelSet:
      return query.depth >= 0;
    case QueryKind::kComponents:
    case QueryKind::kCoreNumber:
      return true;
    case QueryKind::kRankTopK:
      return query.topk >= 1;
  }
  return false;
}

// How an update batch fails: after shutdown (shutdown always wins the
// race, so a batch submitted against a closing service never reports a
// misleading missing tenant) or for a tenant that is gone.
std::exception_ptr shut_down_error() {
  return std::make_exception_ptr(std::runtime_error(
      "ScaleoutService::apply_updates: service shut down"));
}

std::exception_ptr no_such_tenant_error() {
  return std::make_exception_ptr(std::invalid_argument(
      "ScaleoutService::apply_updates: no such tenant"));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Team options for one traversal family at its tuned prefetch
/// distance.
BFSOptions team_options(const ScaleoutConfig& config, int prefetch_distance) {
  BFSOptions opts = config.bfs;
  opts.num_threads = config.threads_per_replica;
  opts.prefetch_distance = prefetch_distance;
  if (config.storage_budget_bytes != 0) {
    opts.storage_budget_bytes = config.storage_budget_bytes;
  }
  return opts;
}

IncrementalBfsEngine::Config engine_config(const ScaleoutConfig& config) {
  IncrementalBfsEngine::Config ec;
  ec.cone_recompute_fraction = config.cone_recompute_fraction;
  ec.bfs = config.bfs;
  ec.bfs.num_threads = config.threads_per_replica;
  return ec;
}

/// Reorder auto-selection: a fixed ServingConfig::reorder forces its
/// policy; otherwise a degree-distribution probe picks one per graph.
/// Scale-free graphs — heavy tail (max degree >> mean) with a plausible
/// power-law exponent — reward hub clustering (the BENCH_locality
/// result kHubCluster exists for); mesh-like graphs have no hubs to
/// cluster. mmap graphs are served as-is: an in-RAM reordered copy
/// would defeat the out-of-core backend (pre-reorder the file offline;
/// format v2 persists the permutation). Cost: one O(n) degree pass.
ReorderPolicy resolve_reorder(const ServingConfig& config,
                              const CsrGraph& graph) {
  constexpr vid_t kMinVerticesForProbe = 32768;
  if (config.reorder != ReorderPolicy::kNone) return config.reorder;
  if (graph.storage_kind() == storage::StorageKind::kMmap ||
      graph.num_vertices() < kMinVerticesForProbe) {
    return ReorderPolicy::kNone;
  }
  const DegreeStats stats = degree_stats(graph);
  const double gamma = power_law_exponent_estimate(stats);
  const bool heavy_tail =
      stats.mean > 0.0 && static_cast<double>(stats.max) >= 8.0 * stats.mean;
  if (heavy_tail && gamma > 1.5) return ReorderPolicy::kHubCluster;
  return ReorderPolicy::kNone;
}

/// Publishes `dyn`'s current state as `version`. The kernel memo
/// answers for one edge set only, so every epoch starts with an empty
/// one and the first kernel query at that version fills it.
std::shared_ptr<const TenantEpoch> make_epoch(const DynamicGraph& dyn,
                                              std::uint64_t version) {
  auto epoch = std::make_shared<TenantEpoch>();
  epoch->snapshot = dyn.snapshot();
  epoch->base = dyn.base_csr();
  epoch->version = version;
  epoch->fingerprint = dyn.content_fingerprint();
  epoch->kernels = std::make_shared<SharedKernelMemo>();
  return epoch;
}

}  // namespace

ScaleoutService::ScaleoutService(ScaleoutConfig config)
    : config_(sanitized(std::move(config))),
      cache_(config_.cache_bytes),
      counters_(config_.replicas + 2),
      mutator_slot_(config_.replicas),
      front_slot_(config_.replicas + 1) {
  replicas_.reserve(static_cast<std::size_t>(config_.replicas));
  for (int r = 0; r < config_.replicas; ++r) {
    auto replica = std::make_unique<Replica>();
    replica->pool = std::make_unique<ForkJoinPool>(config_.threads_per_replica);
    replica->engine = std::make_unique<IncrementalBfsEngine>(
        engine_config(config_), *replica->pool);
    replicas_.push_back(std::move(replica));
  }
  mutator_engine_ =
      std::make_unique<IncrementalBfsEngine>(engine_config(config_));
  for (int r = 0; r < config_.replicas; ++r) {
    replicas_[static_cast<std::size_t>(r)]->thread =
        std::thread([this, r] { replica_loop(r); });
  }
  mutator_ = std::thread([this] { mutator_loop(); });
}

ScaleoutService::~ScaleoutService() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  mutator_cv_.notify_all();
  if (mutator_.joinable()) mutator_.join();
  for (auto& replica : replicas_) {
    if (replica->thread.joinable()) replica->thread.join();
  }
  // Single-threaded from here: every still-queued future resolves
  // (queries with kShutdown, updates with an explicit error) so no
  // caller hangs on a destroyed service.
  for (auto& [id, tenant] : tenants_) {
    for (QueuedQuery& pending : tenant->queue) {
      complete(front_slot_, pending, QueryStatus::kShutdown);
    }
  }
  for (PendingUpdate& update : update_queue_) {
    update.promise.set_exception(shut_down_error());
  }
}

std::shared_ptr<TenantContext> ScaleoutService::build_tenant(
    TenantId id, std::string name, std::shared_ptr<const CsrGraph> graph,
    TenantQuota quota) const {
  if (!graph) {
    throw std::invalid_argument("ScaleoutService: null graph for tenant \"" +
                                name + "\"");
  }
  const std::vector<std::string> engines = all_algorithms();
  if (std::find(engines.begin(), engines.end(),
                config_.single_source_engine) == engines.end()) {
    throw std::invalid_argument("ScaleoutService: unknown single_source_engine '" +
                                config_.single_source_engine + "'");
  }
  auto tenant =
      std::make_shared<TenantContext>(id, std::move(name), quota, replicas());
  if (config_.storage_budget_bytes != 0) {
    graph->set_storage_budget(config_.storage_budget_bytes);
  }
  tenant->reorder = resolve_reorder(config_, *graph);
  if (tenant->reorder != ReorderPolicy::kNone) {
    // Locality preprocessing (DESIGN.md section 3.1a): serve a
    // reordered copy. Transparent to callers — the engines answer in
    // original vertex IDs on reordered graphs.
    graph = std::make_shared<const CsrGraph>(graph->reorder(tenant->reorder));
  }
  // Materialize the transpose here: path queries and bottom-up levels
  // read it, and its lazy build's mutex must stay off those paths.
  if (graph->num_vertices() > 0) graph->transpose();
  tenant->prefetch =
      tune_prefetch(*graph, config_.bfs, config_.single_source_engine,
                    config_.threads_per_replica, /*autotune=*/true);
  DynamicGraph::Config dyn_config;
  dyn_config.compact_threshold = config_.compact_threshold;
  dyn_config.reorder = tenant->reorder;
  tenant->dynamic = std::make_shared<DynamicGraph>(std::move(graph), dyn_config);
  return tenant;
}

TenantId ScaleoutService::register_tenant(
    std::string name, std::shared_ptr<const CsrGraph> graph,
    TenantQuota quota) {
  TenantId id = 0;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      throw std::runtime_error(
          "ScaleoutService::register_tenant: service shut down");
    }
    id = ++last_id_;
  }
  auto tenant = build_tenant(id, std::move(name), std::move(graph), quota);
  tenant->epoch = make_epoch(*tenant->dynamic, 1);
  std::lock_guard lock(mutex_);
  tenants_[id] = std::move(tenant);
  return id;
}

std::uint64_t ScaleoutService::replace_graph(
    TenantId tenant_id, std::shared_ptr<const CsrGraph> graph) {
  const auto registered = [&] {  // call with mutex_ held
    auto old = find(tenant_id);
    if (!old) {
      throw std::invalid_argument(
          "ScaleoutService::replace_graph: no such tenant");
    }
    return old;
  };
  std::string name;
  {
    std::lock_guard lock(mutex_);
    name = registered()->name;
  }
  auto fresh = build_tenant(tenant_id, std::move(name), std::move(graph), {});
  std::vector<QueuedQuery> flush;
  std::uint64_t old_fingerprint = 0;
  {
    std::lock_guard lock(mutex_);
    const auto old = registered();
    old_fingerprint = old->epoch->fingerprint;
    fresh->bucket = old->bucket;
    fresh->epoch = make_epoch(*fresh->dynamic, old->epoch->version + 1);
    flush = take_queue(*old);
    std::erase(ready_, tenant_id);
    tenants_[tenant_id] = fresh;
  }
  // Content-keyed retention: rows of an unchanged edge set (any reorder
  // policy — level arrays are in original IDs) stay valid.
  if (old_fingerprint != fresh->epoch->fingerprint) {
    (void)cache_.extract_all(old_fingerprint);
  }
  for (QueuedQuery& pending : flush) {
    complete(front_slot_, pending, QueryStatus::kStaleGraph);
  }
  return fresh->epoch->version;
}

std::shared_ptr<const CsrGraph> ScaleoutService::load_graph_file(
    const std::string& path, storage::StorageKind kind) const {
  io::CsrLoadOptions load;
  load.storage = kind;
  load.budget_bytes = config_.storage_budget_bytes;
  return std::make_shared<const CsrGraph>(io::read_binary_csr(path, load));
}

bool ScaleoutService::deregister_tenant(TenantId tenant_id) {
  std::vector<QueuedQuery> flush;
  {
    std::lock_guard lock(mutex_);
    auto tenant = find(tenant_id);
    if (!tenant) return false;
    tenants_.erase(tenant_id);
    std::erase(ready_, tenant_id);
    tenant->in_ready = false;
    flush = take_queue(*tenant);
    // Claims already on a replica hold their own shared_ptr to the
    // context and epoch; they complete normally against the detached
    // tenant. Updates still queued fail at the mutator (no such
    // tenant), and the watch table dies with the context.
  }
  for (QueuedQuery& pending : flush) {
    complete(front_slot_, pending, QueryStatus::kStaleGraph);
  }
  return true;
}

std::uint64_t ScaleoutService::graph_version(TenantId tenant_id) const {
  std::lock_guard lock(mutex_);
  const auto tenant = find(tenant_id);
  return tenant ? tenant->epoch->version : 0;
}

QueryResult ScaleoutService::distance(TenantId tenant, vid_t source,
                                      vid_t target) {
  Query q;
  q.kind = QueryKind::kDistance;
  q.source = source;
  q.target = target;
  return query(tenant, q);
}

std::future<QueryResult> ScaleoutService::submit(TenantId tenant_id,
                                                 const Query& query) {
  QueuedQuery pending;
  pending.query = query;
  pending.submitted = Clock::now();
  auto future = pending.promise.get_future();
  counters_.bump_relaxed(front_slot_, kQueriesSubmitted);

  std::shared_ptr<TenantContext> validated;
  std::shared_ptr<const TenantEpoch> epoch;
  QueryStatus refusal = QueryStatus::kOk;
  {
    std::lock_guard lock(mutex_);
    if (shutdown_) {
      refusal = QueryStatus::kShutdown;
    } else if ((validated = find(tenant_id)) == nullptr ||
               !is_valid(query, validated->epoch->snapshot.num_vertices())) {
      refusal = QueryStatus::kInvalid;  // unknown tenant or bad query
    } else if (!validated->bucket.try_take(pending.submitted)) {
      refusal = QueryStatus::kQuotaRejected;
    } else {
      epoch = validated->epoch;
    }
  }
  if (refusal != QueryStatus::kOk) {
    complete(front_slot_, pending, refusal);
    return future;
  }

  // Front-door cache fast path: a repeat source for this tenant's
  // current edge set never touches a queue or a replica.
  if (!is_kernel_query(query.kind)) {
    if (auto cached = cache_.lookup(epoch->fingerprint, query.source)) {
      counters_.bump_relaxed(front_slot_, kQueriesCacheHit);
      complete(front_slot_, pending,
               finalize_levels_query(query, epoch->snapshot, epoch->version,
                                     std::move(cached), /*cache_hit=*/true));
      return future;
    }
  }

  if (query.timeout_ms >= 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.submitted +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(query.timeout_ms));
  }

  {
    std::lock_guard lock(mutex_);
    const auto tenant = find(tenant_id);
    if (shutdown_) {
      refusal = QueryStatus::kShutdown;
    } else if (tenant != validated) {
      // Replaced or deregistered since validation: the graph this query
      // was checked against is gone — the answer the queue flush gives.
      refusal = QueryStatus::kStaleGraph;
    } else if (tenant->queue.size() >= config_.max_queue) {
      refusal = QueryStatus::kRejectedQueueFull;
    } else {
      tenant->queue.push_back(std::move(pending));
      if (!tenant->in_ready) {
        tenant->in_ready = true;
        ready_.push_back(tenant_id);
      }
    }
  }
  if (refusal == QueryStatus::kOk) {
    work_cv_.notify_one();
    return future;
  }
  complete(front_slot_, pending, refusal);
  return future;
}

std::future<std::uint64_t> ScaleoutService::submit_updates(TenantId tenant_id,
                                                           UpdateBatch batch) {
  PendingUpdate update;
  update.tenant = tenant_id;
  update.batch = std::move(batch);
  auto future = update.promise.get_future();
  bool queued = false;
  bool shut = false;
  {
    std::lock_guard lock(mutex_);
    shut = shutdown_;
    if (!shut && find(tenant_id) != nullptr) {
      update_queue_.push_back(std::move(update));
      queued = true;
    }
  }
  if (queued) {
    mutator_cv_.notify_one();
    return future;
  }
  update.promise.set_exception(shut ? shut_down_error()
                                     : no_such_tenant_error());
  return future;
}

std::uint64_t ScaleoutService::apply_updates(TenantId tenant_id,
                                             UpdateBatch batch) {
  return submit_updates(tenant_id, std::move(batch)).get();
}

WatchTicket ScaleoutService::watch_distance(TenantId tenant_id, vid_t source,
                                            vid_t target,
                                            WatchCallback callback) {
  std::shared_ptr<TenantContext> tenant;
  std::shared_ptr<const TenantEpoch> epoch;
  {
    std::lock_guard lock(mutex_);
    tenant = find(tenant_id);
    if (!tenant) {
      throw std::invalid_argument(
          "ScaleoutService::watch_distance: no such tenant");
    }
    epoch = tenant->epoch;
  }
  const vid_t n = epoch->snapshot.num_vertices();
  if (source >= n || target >= n) {
    throw std::invalid_argument(
        "ScaleoutService::watch_distance: vertex out of range");
  }
  return tenant->watches.add(epoch->snapshot, epoch->version, source, target,
                             std::move(callback));
}

bool ScaleoutService::unwatch(TenantId tenant_id, WatchId watch) {
  std::shared_ptr<TenantContext> tenant;
  {
    std::lock_guard lock(mutex_);
    tenant = find(tenant_id);
  }
  return tenant && tenant->watches.remove(watch);
}

ServiceStats ScaleoutService::stats(TenantId tenant_id) const {
  ServiceStats stats = ServiceStats::from(counters_.aggregate());
  {
    std::lock_guard lock(stats_mutex_);
    latencies_.fill(stats);
    stats.batch_histogram = batch_histogram_;
  }
  stats.cache_entries = cache_.entries();
  stats.cache_bytes = cache_.bytes();
  stats.cache_evictions = cache_.evictions();
  stats.replicas = replicas();
  for (const auto& replica : replicas_) {
    stats.pinned_threads +=
        replica->pinned_threads.load(std::memory_order_relaxed);
  }
  std::shared_ptr<const TenantContext> tenant;
  std::shared_ptr<const TenantEpoch> epoch;
  {
    std::lock_guard lock(mutex_);
    stats.tenants = tenants_.size();
    for (const auto& [id, t] : tenants_) stats.watches += t->watches.size();
    tenant = find(tenant_id);
    if (tenant) epoch = tenant->epoch;
  }
  if (tenant) {
    stats.single_source_engine = config_.single_source_engine;
    stats.prefetch_distance = tenant->prefetch.single_source.distance;
    stats.wave_prefetch_distance = tenant->prefetch.wave.distance;
    stats.kernel_prefetch_distance = tenant->prefetch.kernel.distance;
    stats.prefetch_provenance =
        tenant->prefetch.single_source.probed ? "probed" : "configured";
    stats.reorder_policy = reorder_policy_name(tenant->reorder);
    const storage::StorageStats ss = epoch->base->storage_stats();
    stats.storage_backend = storage::storage_kind_name(ss.kind);
    stats.storage_map_bytes = ss.map_bytes;
    stats.storage_budget_bytes = ss.budget_bytes;
    stats.storage_hot_bytes = ss.hot_bytes;
    stats.storage_advise_calls = ss.advise_calls;
    stats.storage_evictions = ss.evictions;
    stats.storage_major_fault_estimate = ss.major_faults;
  }
  // Machine facts (DESIGN.md §13); they degrade to the flat answers on
  // single-node machines and OPTIBFS_NUMA=OFF builds.
  const mem::PhysicalTopology& topo = mem::system_topology();
  stats.sockets = static_cast<int>(topo.nodes.size());
  stats.topology_detected = topo.detected;
  stats.huge_pages = config_.bfs.huge_pages;
  stats.thp_mode = mem::thp_mode_name(mem::thp_mode());
  return stats;
}

ArenaStats ScaleoutService::arena_stats(TenantId tenant_id) const {
  std::shared_ptr<const TenantContext> tenant;
  {
    std::lock_guard lock(mutex_);
    tenant = find(tenant_id);
  }
  ArenaStats out;
  if (!tenant) return out;
  const auto add = [&out](const ArenaStats& a) {
    out.allocations += a.allocations;
    out.reuses += a.reuses;
    out.epoch_wraps += a.epoch_wraps;
  };
  // Engine arenas are written by replica threads during dispatch; these
  // reads are exact once the submitted futures have resolved.
  for (const ReplicaEngines& engines : tenant->engines) {
    if (engines.single) add(engines.single->arena_stats());
    if (engines.session) add(engines.session->arena_stats());
  }
  return out;
}

void ScaleoutService::replica_loop(int r) {
  Replica& rep = *replicas_[static_cast<std::size_t>(r)];
  // Attached here so the track has a single writer for its whole life.
  if (config_.bfs.telemetry != nullptr) {
    rep.trace.attach(*config_.bfs.telemetry,
                     "scaleout.replica" + std::to_string(r));
  }
  const auto max_batch = static_cast<std::size_t>(config_.max_batch);
  for (;;) {
    Claim claim;
    bool more = false;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || !ready_.empty(); });
      if (shutdown_) return;
      const TenantId id = ready_.front();
      ready_.pop_front();
      const auto tenant = find(id);
      if (!tenant || tenant->queue.empty()) {
        if (tenant) tenant->in_ready = false;
        continue;
      }
      claim.tenant = tenant;
      claim.epoch = tenant->epoch;
      // The queue's longest prefix with at most max_batch distinct
      // sources: a query for a source already claimed rides along.
      rep.sources.clear();
      while (!tenant->queue.empty()) {
        const vid_t source = tenant->queue.front().query.source;
        if (std::find(rep.sources.begin(), rep.sources.end(), source) ==
            rep.sources.end()) {
          if (rep.sources.size() == max_batch) break;
          rep.sources.push_back(source);
        }
        claim.batch.push_back(std::move(tenant->queue.front()));
        tenant->queue.pop_front();
      }
      if (!tenant->queue.empty()) {
        // Leftover work re-queues immediately: a second idle replica
        // may claim it and serve this tenant concurrently with us.
        ready_.push_back(id);
        more = true;
      } else {
        tenant->in_ready = false;
      }
    }
    if (more) work_cv_.notify_one();
    execute_claim(r, claim);
  }
}

void ScaleoutService::execute_claim(int r, Claim& claim) {
  Replica& rep = *replicas_[static_cast<std::size_t>(r)];
  const auto now = Clock::now();

  std::vector<QueuedQuery> run;
  run.reserve(claim.batch.size());
  for (QueuedQuery& pending : claim.batch) {
    if (pending.has_deadline && pending.deadline <= now) {
      complete(r, pending, QueryStatus::kTimeout);
    } else {
      run.push_back(std::move(pending));
    }
  }

  if (config_.shedding && rep.ewma_ms > 0.0 && !run.empty()) {
    // Shed lowest-slack first: walk in ascending slack order (deadline-
    // less queries last — they are never shed) accumulating predicted
    // work for the queries we keep; a deadline that cannot cover the
    // work queued in front of it would miss anyway, so answering kShed
    // now is strictly cheaper than executing into a miss.
    std::stable_sort(run.begin(), run.end(),
                     [](const QueuedQuery& a, const QueuedQuery& b) {
                       if (a.has_deadline != b.has_deadline)
                         return a.has_deadline;
                       if (!a.has_deadline) return false;
                       return a.deadline < b.deadline;
                     });
    std::vector<QueuedQuery> kept;
    kept.reserve(run.size());
    double predicted_ms = 0.0;
    for (QueuedQuery& pending : run) {
      if (pending.has_deadline) {
        const double slack_ms =
            std::chrono::duration<double, std::milli>(pending.deadline - now)
                .count();
        if (slack_ms < predicted_ms + rep.ewma_ms) {
          complete(r, pending, QueryStatus::kShed);
          continue;
        }
      }
      predicted_ms += rep.ewma_ms;
      kept.push_back(std::move(pending));
    }
    run.swap(kept);
  }
  if (run.empty()) return;

  counters_.bump_relaxed(r, kReplicaDispatches);
  const std::uint64_t dispatch_t0 = rep.trace.now();
  const auto exec_start = Clock::now();
  {
    // Pin this replica's roster slot with the epoch it serves: the
    // mutator reads the roster (relaxed) right before each apply to
    // record reader overlap — the observable form of "updates proceed
    // without quiescing the fleet". RAII, so a throwing engine unpins.
    const EpochRoster::Pin pin(claim.tenant->dynamic->roster(), r,
                               claim.epoch->version);
    std::vector<QueuedQuery> levels_queries, kernel_queries;
    for (QueuedQuery& pending : run) {
      (is_kernel_query(pending.query.kind) ? kernel_queries : levels_queries)
          .push_back(std::move(pending));
    }
    if (!levels_queries.empty()) {
      run_levels_queries(r, claim, levels_queries, exec_start);
    }
    if (!kernel_queries.empty()) {
      run_kernel_queries(r, claim, kernel_queries, exec_start);
    }
  }
  rep.trace.span(kEvBatchDispatch, dispatch_t0,
                 static_cast<std::uint64_t>(run.size()));
  const double per_query_ms =
      ms_since(exec_start) / static_cast<double>(run.size());
  rep.ewma_ms = rep.ewma_ms < 0.0
                    ? per_query_ms
                    : kShedEwmaAlpha * per_query_ms +
                          (1.0 - kShedEwmaAlpha) * rep.ewma_ms;
}

ReplicaEngines& ScaleoutService::engines_for(int r, const Claim& claim) {
  Replica& rep = *replicas_[static_cast<std::size_t>(r)];
  ReplicaEngines& engines = claim.tenant->engines[static_cast<std::size_t>(r)];
  if (engines.base == claim.epoch->base) return engines;
  // First claim on this base CSR (registration, compaction or
  // replacement): free the old engines before building the new ones.
  engines.single.reset();
  engines.session.reset();
  const PrefetchPlan& prefetch = claim.tenant->prefetch;
  const CsrGraph& graph = *claim.epoch->base;
  engines.single =
      make_bfs(config_.single_source_engine, graph,
               team_options(config_, prefetch.single_source.distance));
  // Waves direction-optimize like the (default BFS_CL_H) batch-of-1
  // engine; set bfs.alpha = 0 to force top-down-only waves.
  BFSOptions wave = team_options(config_, prefetch.wave.distance);
  wave.direction_mode = DirectionMode::kHybrid;
  engines.session = std::make_unique<MsBfsSession>(graph, wave, *rep.pool);
  engines.base = claim.epoch->base;
  rep.pinned_threads.store(engines.single->pinned_threads(),
                           std::memory_order_relaxed);
  return engines;
}

void ScaleoutService::run_levels_queries(int r, const Claim& claim,
                                         std::vector<QueuedQuery>& queries,
                                         Clock::time_point exec_start) {
  Replica& rep = *replicas_[static_cast<std::size_t>(r)];
  const TenantEpoch& epoch = *claim.epoch;

  // Distinct sources; rows another claim finished since admission come
  // from the cache, the rest run as one dispatch.
  std::vector<vid_t>& sources = rep.sources;
  sources.clear();
  for (const QueuedQuery& pending : queries) {
    if (std::find(sources.begin(), sources.end(), pending.query.source) ==
        sources.end()) {
      sources.push_back(pending.query.source);
    }
  }
  std::vector<ResultCache::LevelsPtr> rows(sources.size());
  std::vector<bool> hit(sources.size());
  std::vector<vid_t> wave;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    rows[s] = cache_.lookup(epoch.fingerprint, sources[s]);
    hit[s] = rows[s] != nullptr;
    if (!hit[s]) wave.push_back(sources[s]);
  }

  if (!wave.empty()) {
    std::vector<ResultCache::LevelsPtr> computed;
    computed.reserve(wave.size());
    if (epoch.snapshot.has_delta()) {
      // A live delta overlay means the base CSR the engines traverse is
      // stale; the incremental engine's wave machinery is the
      // delta-aware path until the next compaction folds it back in.
      for (const vid_t source : wave) {
        rep.engine->recompute(epoch.snapshot, source, rep.scratch);
        computed.push_back(
            std::make_shared<const std::vector<level_t>>(rep.scratch));
      }
    } else if (wave.size() == 1) {
      // Wave of one: the batch-of-1 engine is strictly cheaper than a
      // one-bit MS-BFS (no mask arbitration, direction switching).
      engines_for(r, claim).single->run(wave[0], rep.single_out);
      computed.push_back(
          std::make_shared<const std::vector<level_t>>(rep.single_out.level));
    } else {
      engines_for(r, claim).session->run(wave, rep.wave_out);
      const auto n = static_cast<std::size_t>(epoch.snapshot.num_vertices());
      for (std::size_t s = 0; s < wave.size(); ++s) {
        const level_t* row = rep.wave_out.distance.data() + s * n;
        computed.push_back(
            std::make_shared<const std::vector<level_t>>(row, row + n));
      }
    }
    for (std::size_t s = 0, c = 0; s < sources.size(); ++s) {
      if (hit[s]) continue;
      rows[s] = std::move(computed[c++]);
      cache_.insert(epoch.fingerprint, sources[s], rows[s]);
    }
    // Count before completing: a caller who blocks on the future and
    // then reads stats() must see this dispatch included.
    counters_.bump_relaxed(r, wave.size() == 1 ? kSingleDispatches : kWaves);
    std::lock_guard lock(stats_mutex_);
    ++batch_histogram_[wave.size()];
  }

  for (QueuedQuery& pending : queries) {
    const std::size_t slot = static_cast<std::size_t>(
        std::find(sources.begin(), sources.end(), pending.query.source) -
        sources.begin());
    if (hit[slot]) counters_.bump_relaxed(r, kQueriesCacheHit);
    finish(r, pending,
           finalize_levels_query(pending.query, epoch.snapshot, epoch.version,
                                 rows[slot], hit[slot]),
           exec_start);
  }
}

void ScaleoutService::run_kernel_queries(int r, const Claim& claim,
                                         std::vector<QueuedQuery>& queries,
                                         Clock::time_point exec_start) {
  const TenantEpoch& epoch = *claim.epoch;
  bool need_cc = false, need_core = false, need_rank = false;
  for (const QueuedQuery& pending : queries) {
    need_cc |= pending.query.kind == QueryKind::kComponents;
    need_core |= pending.query.kind == QueryKind::kCoreNumber;
    need_rank |= pending.query.kind == QueryKind::kRankTopK;
  }

  // Replica-aware sharing: the memo lives on the epoch, so two replicas
  // serving the same tenant version converge on one kernel run — the
  // second blocks on the memo mutex and wakes to a filled result. A
  // live delta overlay means the kernels run on CSR ∪ delta, flattened
  // once per miss.
  const SharedKernelMemo::Access access = epoch.kernels->ensure(
      need_cc, need_core, need_rank,
      [&]() -> std::shared_ptr<const CsrGraph> {
        if (epoch.snapshot.has_delta()) {
          return std::make_shared<const CsrGraph>(
              CsrGraph::from_edges(epoch.snapshot.to_edge_list()));
        }
        return epoch.base;
      },
      team_options(config_, claim.tenant->prefetch.kernel.distance));

  std::uint64_t hits = 0;
  for (const QueuedQuery& pending : queries) {
    const QueryKind kind = pending.query.kind;
    if ((kind == QueryKind::kComponents && access.components_hit) ||
        (kind == QueryKind::kCoreNumber && access.core_hit) ||
        (kind == QueryKind::kRankTopK && access.rank_hit)) {
      ++hits;
    }
  }
  counters_.bump_relaxed(r, kKernelQueries,
                         static_cast<std::uint64_t>(queries.size()));
  counters_.bump_relaxed(r, kKernelCacheHits, hits);
  counters_.bump_relaxed(r, kKernelRecomputes, access.recomputes);

  const SharedKernelMemo& memo = *epoch.kernels;
  for (QueuedQuery& pending : queries) {
    QueryResult result;
    result.status = QueryStatus::kOk;
    result.graph_version = epoch.version;
    switch (pending.query.kind) {
      case QueryKind::kComponents:
        result.component = memo.components()[pending.query.source];
        result.component_size = memo.size_by_label()[result.component];
        result.cache_hit = access.components_hit;
        break;
      case QueryKind::kCoreNumber:
        result.core = memo.core()[pending.query.source];
        result.cache_hit = access.core_hit;
        break;
      case QueryKind::kRankTopK: {
        const auto& ranked = memo.rank_sorted();
        const std::size_t k = std::min(
            static_cast<std::size_t>(pending.query.topk), ranked.size());
        result.topk.assign(ranked.begin(),
                           ranked.begin() + static_cast<std::ptrdiff_t>(k));
        result.cache_hit = access.rank_hit;
        break;
      }
      default:
        result.status = QueryStatus::kInvalid;
        break;
    }
    finish(r, pending, std::move(result), exec_start);
  }
}

void ScaleoutService::mutator_loop() {
  if (config_.bfs.telemetry != nullptr) {
    mutator_trace_.attach(*config_.bfs.telemetry, "scaleout.mutator");
  }
  for (;;) {
    PendingUpdate update;
    {
      std::unique_lock lock(mutex_);
      mutator_cv_.wait(lock,
                       [&] { return shutdown_ || !update_queue_.empty(); });
      if (shutdown_) return;  // leftovers flushed by the destructor
      update = std::move(update_queue_.front());
      update_queue_.pop_front();
    }
    apply_one(update);
  }
}

void ScaleoutService::apply_one(PendingUpdate& update) {
  std::shared_ptr<TenantContext> tenant;
  {
    std::lock_guard lock(mutex_);
    tenant = find(update.tenant);
  }
  if (!tenant) {
    update.promise.set_exception(no_such_tenant_error());
    return;
  }
  const std::uint64_t apply_t0 = mutator_trace_.now();
  // Only this (mutator) thread swaps a registered context's epoch, so
  // reading the current one without the lock is single-writer-safe.
  const std::shared_ptr<const TenantEpoch> prev = tenant->epoch;

  // Reader overlap census, taken right before the apply: any pinned
  // roster slot is a replica traversing a (COW-protected) snapshot
  // while we mutate — the evidence that apply proceeds with no fleet
  // quiescence.
  if (tenant->dynamic->roster().pinned_slots() > 0) {
    counters_.bump_relaxed(mutator_slot_, kUpdatesOverlappedReads);
  }

  BatchSummary summary;
  try {
    summary = tenant->dynamic->apply(update.batch);
  } catch (...) {
    update.promise.set_exception(std::current_exception());
    return;
  }
  const std::shared_ptr<const TenantEpoch> next =
      make_epoch(*tenant->dynamic, prev->version + 1);

  // Cone-scoped migration of this tenant's cache rows (extract_all is
  // fingerprint-keyed, so other tenants' rows are untouched): provably
  // unaffected rows are re-inserted as-is, affected rows are repaired
  // in place, and rows whose deletion cone defeats repair are dropped
  // (recomputed on next demand).
  std::uint64_t repaired = 0, revalidated = 0, waves = 0, cones = 0;
  if (summary.changed() && cache_.enabled() &&
      next->fingerprint != prev->fingerprint) {
    auto rows = cache_.extract_all(prev->fingerprint);
    for (auto& [source, row] : rows) {
      if (!row) continue;
      if (!batch_affects_levels(next->snapshot, *row, summary)) {
        cache_.insert(next->fingerprint, source, std::move(row));
        ++revalidated;
        continue;
      }
      std::vector<level_t> fixed(*row);
      const RepairOutcome out =
          mutator_engine_->repair(next->snapshot, summary, source, fixed);
      if (out.repaired) {
        cache_.insert(
            next->fingerprint, source,
            std::make_shared<const std::vector<level_t>>(std::move(fixed)));
        ++repaired;
        waves += out.waves;
      } else {
        ++cones;
      }
    }
  }

  {
    std::lock_guard lock(mutex_);
    // A graph replaced (or a tenant removed) mid-apply: the batch went
    // to a detached graph, so it does not count as applied.
    if (find(update.tenant) == tenant) tenant->epoch = next;
    else tenant.reset();
  }
  if (!tenant) {
    update.promise.set_exception(no_such_tenant_error());
    return;
  }

  counters_.bump_relaxed(mutator_slot_, kUpdateBatches);
  counters_.bump_relaxed(mutator_slot_, kEdgesInserted, summary.inserted);
  counters_.bump_relaxed(mutator_slot_, kEdgesDeleted, summary.erased);
  if (summary.compacted) {
    counters_.bump_relaxed(mutator_slot_, kCompactions);
  }
  counters_.bump_relaxed(mutator_slot_, kResultsRepaired, repaired);
  counters_.bump_relaxed(mutator_slot_, kResultsRevalidated, revalidated);
  counters_.bump_relaxed(mutator_slot_, kRepairWaves, waves);
  counters_.bump_relaxed(mutator_slot_, kConeRecomputes, cones);

  // Continuous queries ride the same batch: roll every watched source
  // forward (repair, or recompute when the cone covers the watch) and
  // collect the distance transitions.
  ContinuousQueryTable::Rollforward roll = tenant->watches.roll_forward(
      *mutator_engine_, next->snapshot, prev->version, next->version,
      summary);
  counters_.bump_relaxed(mutator_slot_, kWatchRepairs, roll.repairs);
  counters_.bump_relaxed(mutator_slot_, kWatchRecomputes, roll.recomputes);
  counters_.bump_relaxed(mutator_slot_, kWatchesUnchanged, roll.unchanged);
  counters_.bump_relaxed(mutator_slot_, kWatchesNotified, roll.notified);
  mutator_trace_.span(kEvApplyBatch, apply_t0,
                      summary.inserted + summary.erased);

  // Notify with no locks held (callbacks may re-enter the service),
  // and *before* resolving the update future: when apply_updates()
  // returns, every notification for that batch has been delivered.
  for (auto& [callback, event] : roll.notifications) {
    try {
      callback(event);
    } catch (...) {
      // A throwing callback must not fail its batch or starve the
      // other watches and later batches.
    }
  }
  update.promise.set_value(next->version);
}

void ScaleoutService::finish(int r, QueuedQuery& pending, QueryResult result,
                             Clock::time_point exec_start) {
  telemetry::ThreadTrace& trace = replicas_[static_cast<std::size_t>(r)]->trace;
  if (trace.attached()) {
    // Per-query latency breakdown (arg = the query's source): queued
    // until its claim executed, then inside the execution.
    trace.span_between(kEvQueueWait, pending.submitted, exec_start,
                       pending.query.source);
    trace.span_between(kEvExecute, exec_start, Clock::now(),
                       pending.query.source);
  }
  complete(r, pending, std::move(result));
}

std::shared_ptr<TenantContext> ScaleoutService::find(TenantId id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<QueuedQuery> ScaleoutService::take_queue(TenantContext& tenant) {
  std::vector<QueuedQuery> out(std::make_move_iterator(tenant.queue.begin()),
                               std::make_move_iterator(tenant.queue.end()));
  tenant.queue.clear();
  return out;
}

void ScaleoutService::complete(int slot, QueuedQuery& pending,
                               QueryStatus status) {
  QueryResult result;
  result.status = status;
  complete(slot, pending, std::move(result));
}

void ScaleoutService::complete(int slot, QueuedQuery& pending,
                               QueryResult result) {
  result.latency_ms = ms_since(pending.submitted);
  switch (result.status) {
    case QueryStatus::kOk:
      counters_.bump_relaxed(slot, kQueriesCompleted);
      {
        std::lock_guard lock(stats_mutex_);
        latencies_.record(result.latency_ms);
      }
      break;
    case QueryStatus::kRejectedQueueFull:
      counters_.bump_relaxed(slot, kQueriesRejected);
      break;
    case QueryStatus::kTimeout:
      counters_.bump_relaxed(slot, kQueriesTimedOut);
      break;
    case QueryStatus::kStaleGraph:
      counters_.bump_relaxed(slot, kQueriesStaleGraph);
      break;
    case QueryStatus::kShutdown:
      counters_.bump_relaxed(slot, kQueriesShutdownFlushed);
      break;
    case QueryStatus::kInvalid:
      break;
    case QueryStatus::kQuotaRejected:
      counters_.bump_relaxed(slot, kQueriesQuotaRejected);
      break;
    case QueryStatus::kShed:
      counters_.bump_relaxed(slot, kQueriesShed);
      break;
  }
  pending.promise.set_value(std::move(result));
}

}  // namespace optibfs::scaleout
