#include "service/bfs_service.hpp"

#include <utility>

namespace optibfs {

namespace {

scaleout::ScaleoutConfig one_replica(const ServiceConfig& config) {
  scaleout::ScaleoutConfig core;
  static_cast<ServingConfig&>(core) = config;
  core.replicas = 1;
  core.threads_per_replica = config.num_threads;
  core.shedding = false;  // every admitted query is answered
  return core;
}

}  // namespace

BfsService::BfsService(ServiceConfig config) : core_(one_replica(config)) {}

std::uint64_t BfsService::register_graph(
    std::shared_ptr<const CsrGraph> graph) {
  std::lock_guard lock(register_mutex_);
  const scaleout::TenantId tenant = tenant_.load(std::memory_order_acquire);
  if (tenant != 0) return core_.replace_graph(tenant, std::move(graph));
  const scaleout::TenantId fresh =
      core_.register_tenant("graph", std::move(graph));
  tenant_.store(fresh, std::memory_order_release);
  return core_.graph_version(fresh);
}

std::uint64_t BfsService::register_graph_file(const std::string& path,
                                              storage::StorageKind kind) {
  return register_graph(core_.load_graph_file(path, kind));
}

std::uint64_t BfsService::graph_version() const {
  return core_.graph_version(tenant_.load(std::memory_order_acquire));
}

std::uint64_t BfsService::apply_updates(UpdateBatch batch) {
  return submit_updates(std::move(batch)).get();
}

std::future<std::uint64_t> BfsService::submit_updates(UpdateBatch batch) {
  return core_.submit_updates(tenant_.load(std::memory_order_acquire),
                              std::move(batch));
}

std::future<QueryResult> BfsService::submit(const Query& query) {
  return core_.submit(tenant_.load(std::memory_order_acquire), query);
}

QueryResult BfsService::distance(vid_t source, vid_t target) {
  return query({.kind = QueryKind::kDistance, .source = source,
                .target = target});
}

QueryResult BfsService::path(vid_t source, vid_t target) {
  return query({.kind = QueryKind::kPath, .source = source, .target = target});
}

QueryResult BfsService::level_set(vid_t source, level_t depth) {
  return query({.kind = QueryKind::kLevelSet, .source = source,
                .depth = depth});
}

QueryResult BfsService::components_of(vid_t v) {
  return query({.kind = QueryKind::kComponents, .source = v});
}

QueryResult BfsService::core_number(vid_t v) {
  return query({.kind = QueryKind::kCoreNumber, .source = v});
}

QueryResult BfsService::rank_topk(int k) {
  return query({.kind = QueryKind::kRankTopK, .topk = k});
}

ServiceStats BfsService::stats() const {
  return core_.stats(tenant_.load(std::memory_order_acquire));
}

ArenaStats BfsService::arena_stats() const {
  return core_.arena_stats(tenant_.load(std::memory_order_acquire));
}

}  // namespace optibfs
