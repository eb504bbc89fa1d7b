// Observability for the serving core: one stats struct for both front
// doors (ScaleoutService and its one-tenant configuration BfsService).
//
// ServiceStats is a plain snapshot the service hands out under its own
// locking; LatencyReservoir is the bounded sample store behind the
// p50/p99 figures (a fixed ring — old samples age out, so the
// percentiles track recent traffic without unbounded memory). The JSON
// rendering feeds the same machine-readable path the benches use
// (bench_common.hpp --json / OPTIBFS_JSON).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/counters.hpp"

namespace optibfs {

// One row per counter-backed field: the member, the flight-recorder
// counter it reads back (telemetry/counters.hpp), and — stringized — its
// JSON key. The struct fields, from() and to_json() all expand it.
//
// clang-format off
#define OPTIBFS_SERVICE_COUNTERS(X)                                        \
  /* admission / completion */                                             \
  X(submitted,                kQueriesSubmitted)    /* every submit()   */ \
  X(completed,                kQueriesCompleted)    /* answered kOk     */ \
  X(cache_hits,               kQueriesCacheHit)     /* from the cache   */ \
  X(rejected,                 kQueriesRejected)     /* queue full       */ \
  X(timed_out,                kQueriesTimedOut)     /* deadline, queued */ \
  X(stale_graph,              kQueriesStaleGraph)   /* graph replaced   */ \
  X(shutdown_flushed,         kQueriesShutdownFlushed)                     \
  X(quota_rejected,           kQueriesQuotaRejected) /* token bucket    */ \
  X(shed,                     kQueriesShed)         /* deadline shedding */\
  /* dispatch shape */                                                     \
  X(replica_dispatches,       kReplicaDispatches)   /* claims executed  */ \
  X(waves,                    kWaves)               /* multi-source     */ \
  X(single_dispatches,        kSingleDispatches)    /* batches of 1     */ \
  /* dynamic graphs (apply_updates; DESIGN.md section 9) */                \
  X(update_batches,           kUpdateBatches)                              \
  X(edges_inserted,           kEdgesInserted)       /* took effect      */ \
  X(edges_deleted,            kEdgesDeleted)        /* took effect      */ \
  X(compactions,              kCompactions)                                \
  X(results_repaired,         kResultsRepaired)     /* rows fixed       */ \
  X(results_revalidated,      kResultsRevalidated)  /* rows unaffected  */ \
  X(repair_waves,             kRepairWaves)         /* repair levels    */ \
  X(cone_recomputes,          kConeRecomputes)      /* rows dropped     */ \
  X(updates_overlapped_reads, kUpdatesOverlappedReads) /* pinned reader */ \
  /* kernel-typed queries (DESIGN.md section 11) */                        \
  X(kernel_queries,           kKernelQueries)                              \
  X(kernel_cache_hits,        kKernelCacheHits)     /* memo hits        */ \
  X(kernel_recomputes,        kKernelRecomputes)    /* memo misses      */ \
  /* continuous queries */                                                 \
  X(watches_notified,         kWatchesNotified)                            \
  X(watch_repairs,            kWatchRepairs)                               \
  X(watch_recomputes,         kWatchRecomputes)                            \
  X(watches_unchanged,        kWatchesUnchanged)
// clang-format on

struct ServiceStats {
#define OPTIBFS_STATS_FIELD(field, counter) std::uint64_t field = 0;
  OPTIBFS_SERVICE_COUNTERS(OPTIBFS_STATS_FIELD)
#undef OPTIBFS_STATS_FIELD

  /// batch_histogram[w] = number of dispatches of exactly w distinct
  /// sources (index 0 unused; max wave width is 64).
  std::array<std::uint64_t, 65> batch_histogram{};

  // ---- latency over recent completions (reservoir) ----
  std::uint64_t latency_samples = 0;
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;

  // ---- result cache (shared by every tenant) ----
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t cache_evictions = 0;

  // ---- fleet shape ----
  int replicas = 0;
  std::uint64_t tenants = 0;
  std::uint64_t watches = 0;

  // ---- per-graph configuration (resolved at registration) ----
  // Filled for the tenant stats() was asked about (BfsService: its one
  // graph); empty / -1 otherwise.
  /// Name of the batch-of-1 engine serving single dispatches (the
  /// strict-vs-relaxed choice: a level-synchronous hybrid like
  /// BFS_CL_H, or the asynchronous BFS_ASYNC).
  std::string single_source_engine;
  /// Prefetch lookaheads the graph's engines run with: the batch-of-1
  /// engine, the MS-BFS wave session, and the kernel memo runs, probed
  /// independently — their hot probe arrays (level[], mask words,
  /// kernel state) have different win profiles. Recorded here so a
  /// regressing default cannot ship silently (the BENCH_locality pf8
  /// lesson).
  int prefetch_distance = -1;
  int wave_prefetch_distance = -1;
  int kernel_prefetch_distance = -1;
  /// "probed" when the distances won registration-time timing on this
  /// graph; "configured" when the graph was below the probe floor and
  /// the configured value passed through.
  std::string prefetch_provenance;
  /// Resolved vertex-reorder policy the graph is served under: the
  /// configured one, or the registration-time degree-probe pick
  /// (scale-free -> hub_cluster, mesh-like -> none).
  std::string reorder_policy;

  // ---- storage tier (DESIGN.md §12), for the same graph ----
  /// Backend holding the graph's CSR arrays ("heap" or "mmap").
  std::string storage_backend;
  std::uint64_t storage_map_bytes = 0;     ///< bytes mapped / heap-owned
  std::uint64_t storage_budget_bytes = 0;  ///< residency cap (0 = uncapped)
  std::uint64_t storage_hot_bytes = 0;     ///< bytes currently charged hot
  std::uint64_t storage_advise_calls = 0;  ///< madvise/fadvise issued
  std::uint64_t storage_evictions = 0;     ///< intervals dropped
  /// rusage ru_majflt delta since the graph was mapped (process-wide
  /// estimate; 0 for heap graphs).
  std::uint64_t storage_major_fault_estimate = 0;

  // ---- memory topology (DESIGN.md §13) ----
  /// NUMA nodes the machine reports (1 on flat/degraded machines).
  int sockets = 1;
  /// true when sysfs topology detection succeeded (false means the
  /// flat fallback is in effect and `sockets` is nominal).
  bool topology_detected = false;
  /// Batch-of-1 engine worker threads pinned to their assigned cpus,
  /// summed over replicas (0 when pinning is off or unavailable).
  int pinned_threads = 0;
  /// Whether the engines were built with BFSOptions::huge_pages.
  bool huge_pages = false;
  /// Kernel transparent-huge-page mode ("always"/"madvise"/"never"/
  /// "unknown") — what a huge_pages=true request can actually achieve.
  std::string thp_mode;

  /// The one place mapping flight-recorder counters back to report
  /// fields; the histogram, latency, cache and configuration blocks are
  /// filled by the caller.
  static ServiceStats from(const telemetry::CounterSnapshot& c) {
    ServiceStats s;
#define OPTIBFS_STATS_FROM(field, counter) s.field = c[telemetry::counter];
    OPTIBFS_SERVICE_COUNTERS(OPTIBFS_STATS_FROM)
#undef OPTIBFS_STATS_FROM
    return s;
  }

  double mean_batch_width() const {
    std::uint64_t batches = 0, queries = 0;
    for (std::size_t w = 1; w < batch_histogram.size(); ++w) {
      batches += batch_histogram[w];
      queries += batch_histogram[w] * w;
    }
    return batches == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(batches);
  }

  double cache_hit_rate() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(cache_hits) /
                                static_cast<double>(submitted);
  }

  /// Renders the snapshot as a JSON object (no trailing newline) for
  /// the benches' machine-readable output path.
  std::string to_json() const {
    std::ostringstream out;
    out << "{";
#define OPTIBFS_STATS_JSON(field, counter) out << "\"" #field "\": " << field << ", ";
    OPTIBFS_SERVICE_COUNTERS(OPTIBFS_STATS_JSON)
#undef OPTIBFS_STATS_JSON
    out << "\"mean_batch_width\": " << mean_batch_width()
        << ", \"cache_hit_rate\": " << cache_hit_rate()
        << ", \"latency_samples\": " << latency_samples
        << ", \"mean_latency_ms\": " << mean_latency_ms
        << ", \"p50_latency_ms\": " << p50_latency_ms
        << ", \"p99_latency_ms\": " << p99_latency_ms
        << ", \"max_latency_ms\": " << max_latency_ms
        << ", \"cache_entries\": " << cache_entries
        << ", \"cache_bytes\": " << cache_bytes
        << ", \"cache_evictions\": " << cache_evictions
        << ", \"replicas\": " << replicas << ", \"tenants\": " << tenants
        << ", \"watches\": " << watches
        << ", \"single_source_engine\": \"" << single_source_engine << "\""
        << ", \"prefetch_distance\": " << prefetch_distance
        << ", \"wave_prefetch_distance\": " << wave_prefetch_distance
        << ", \"kernel_prefetch_distance\": " << kernel_prefetch_distance
        << ", \"prefetch_provenance\": \"" << prefetch_provenance << "\""
        << ", \"reorder_policy\": \"" << reorder_policy << "\""
        << ", \"storage_backend\": \"" << storage_backend << "\""
        << ", \"storage_map_bytes\": " << storage_map_bytes
        << ", \"storage_budget_bytes\": " << storage_budget_bytes
        << ", \"storage_hot_bytes\": " << storage_hot_bytes
        << ", \"storage_advise_calls\": " << storage_advise_calls
        << ", \"storage_evictions\": " << storage_evictions
        << ", \"storage_major_fault_estimate\": "
        << storage_major_fault_estimate
        << ", \"sockets\": " << sockets
        << ", \"topology_detected\": " << (topology_detected ? "true" : "false")
        << ", \"pinned_threads\": " << pinned_threads
        << ", \"huge_pages\": " << (huge_pages ? "true" : "false")
        << ", \"thp_mode\": \"" << thp_mode << "\""
        << ", \"batch_histogram\": {";
    bool first = true;
    for (std::size_t w = 1; w < batch_histogram.size(); ++w) {
      if (batch_histogram[w] == 0) continue;
      out << (first ? "" : ", ") << "\"" << w
          << "\": " << batch_histogram[w];
      first = false;
    }
    out << "}}";
    return out.str();
  }
};

/// Fixed-capacity latency ring. record() is O(1); fill() sorts a copy
/// of the live samples to extract percentiles (snapshot-time cost only).
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 8192)
      : samples_(capacity, 0.0) {}

  void record(double ms) {
    samples_[next_] = ms;
    next_ = (next_ + 1) % samples_.size();
    ++count_;
    sum_ += ms;
    max_ = std::max(max_, ms);
  }

  void fill(ServiceStats& stats) const {
    stats.latency_samples = count_;
    stats.max_latency_ms = max_;
    stats.mean_latency_ms =
        count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    const std::size_t live =
        std::min<std::uint64_t>(count_, samples_.size());
    if (live == 0) return;
    std::vector<double> sorted(samples_.begin(),
                               samples_.begin() +
                                   static_cast<std::ptrdiff_t>(live));
    std::sort(sorted.begin(), sorted.end());
    stats.p50_latency_ms = sorted[(live - 1) / 2];
    stats.p99_latency_ms = sorted[(live - 1) * 99 / 100];
  }

 private:
  std::vector<double> samples_;
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

}  // namespace optibfs
