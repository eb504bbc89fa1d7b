// Multi-graph tenancy (DESIGN.md section 4): the bookkeeping half of
// the serving core.
//
// A *tenant* is one served graph plus its admission policy: a dynamic
// graph (single mutator, copy-on-write readers), the reorder policy
// registration resolved for it, the current published epoch
// (snapshot + version + fingerprint + kernel memo, swapped as one
// immutable object), a token-bucket quota, a bounded admission queue,
// one engine slot per replica, and the tenant's continuous-query
// table. Its engines run with ServingConfig::bfs as configured. ScaleoutService owns the id ->
// context map under its admission mutex (the documented front-of-house
// lock exemption); contexts are shared so a claim taken before
// deregister_tenant() or replace_graph() finishes cleanly against the
// detached context — neither waits for in-flight work.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/bfs_engine.hpp"
#include "core/msbfs.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/csr_graph.hpp"
#include "scaleout/continuous_query.hpp"
#include "service/kernel_memo.hpp"
#include "service/serving.hpp"

namespace optibfs::scaleout {

/// Per-tenant admission quota. rate_qps <= 0 means unlimited.
struct TenantQuota {
  double rate_qps = 0.0;  ///< sustained queries/second
  double burst = 32.0;    ///< bucket capacity (max queries in one burst)
};

/// Token bucket refilled from the monotonic clock on each admission
/// attempt. Guarded by the caller's (service admission) mutex.
class TokenBucket {
 public:
  explicit TokenBucket(TenantQuota quota)
      : quota_(quota), tokens_(quota.burst) {}

  bool try_take(std::chrono::steady_clock::time_point now) {
    if (quota_.rate_qps <= 0.0) return true;
    if (started_) {
      const double elapsed =
          std::chrono::duration<double>(now - last_).count();
      tokens_ = std::min(quota_.burst, tokens_ + elapsed * quota_.rate_qps);
    }
    started_ = true;
    last_ = now;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    return false;
  }

 private:
  TenantQuota quota_;
  double tokens_;
  bool started_ = false;
  std::chrono::steady_clock::time_point last_;
};

/// One published graph version, swapped as a unit under the admission
/// mutex. Immutable after publication: replicas claim a shared_ptr and
/// serve against it even while the mutator publishes successors (the
/// COW snapshot keeps the edge set alive; the kernel memo is shared by
/// every replica serving this version).
struct TenantEpoch {
  GraphSnapshot snapshot;
  std::shared_ptr<const CsrGraph> base;  ///< engine identity, kernel view
  std::uint64_t version = 0;
  std::uint64_t fingerprint = 0;  ///< shared result-cache key
  std::shared_ptr<SharedKernelMemo> kernels;
};

/// One admitted query waiting in (or claimed from) a tenant queue.
struct QueuedQuery {
  Query query;
  std::promise<QueryResult> promise;
  std::chrono::steady_clock::time_point submitted;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  bool answered = false;  ///< the promise is set (a throwing claim skips it)
};

/// Engines one replica built over one base CSR. Slot r of a tenant is
/// touched only by replica r's thread: built on the first claim that
/// needs it, rebuilt when compaction or replace_graph changes the base.
struct ReplicaEngines {
  std::shared_ptr<const CsrGraph> base;   ///< the CSR they traverse
  std::unique_ptr<ParallelBFS> single;    ///< batch-of-1 engine
  std::unique_ptr<MsBfsSession> session;  ///< waves on the replica's team
};

struct TenantContext {
  TenantContext(TenantId id_, std::string name_, TenantQuota quota,
                int replicas)
      : id(id_),
        name(std::move(name_)),
        bucket(quota),
        watches(id_),
        engines(static_cast<std::size_t>(replicas)) {}

  const TenantId id;
  const std::string name;
  /// Resolved once at registration (fixed for the context's life).
  ReorderPolicy reorder = ReorderPolicy::kNone;
  /// Single-mutator dynamic graph; only the service's mutator thread
  /// calls apply(). Replicas touch it solely through the
  /// (relaxed-atomic) epoch roster.
  std::shared_ptr<DynamicGraph> dynamic;
  /// Current epoch; swapped (never mutated) under the admission mutex.
  std::shared_ptr<const TenantEpoch> epoch;
  TokenBucket bucket;              ///< admission mutex
  ContinuousQueryTable watches;    ///< own internal mutex
  std::deque<QueuedQuery> queue;   ///< admission mutex
  bool in_ready = false;           ///< queued in the dispatcher's ready list
  std::vector<ReplicaEngines> engines;  ///< slot r: replica r's thread only
};

}  // namespace optibfs::scaleout
