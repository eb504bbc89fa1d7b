// Flight-recorder counter registry — the always-on half of the
// telemetry subsystem (src/telemetry/).
//
// The paper's central quantitative claims (duplicate exploration is
// rare, invalid segments are cheap to reject, the clearing trick keeps
// wasted work negligible) are all statements about event *counts*. This
// registry gives every subsystem one shared vocabulary of counters and
// one aggregation path, while staying inside the paper's no-locks /
// no-atomic-RMW discipline on hot paths:
//
//  * storage is a per-slot (per-thread), cache-line-aligned slab of
//    plain std::uint64_t — each slot has exactly one writer, which
//    bumps counters with ordinary `++slab[k]` stores;
//  * aggregation happens only at quiescent points (after a team join,
//    inside a single-threaded barrier window, or under a mutex the
//    writers already hold), so the plain stores are race-benign: a
//    happens-before edge always separates the last write from the read;
//  * for the one substrate that has no quiescent point (ForkJoinPool
//    workers run forever), bump_relaxed()/aggregate() use
//    std::atomic_ref relaxed accesses — the pool is infrastructure that
//    already uses atomics (deques, futexes) and is documented as
//    outside the BFS hot-path discipline.
//
// This header is compiled in every build mode. OPTIBFS_TELEMETRY only
// gates the *tracing* half (trace.hpp / recorder.hpp): counters are the
// successor of the per-thread stats the engines always kept, so keeping
// them unconditional costs nothing new.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace optibfs::telemetry {

// X-macro master list: one row per counter keeps the enum, the JSON
// name, and the glossary (DESIGN.md section 5) in sync by construction.
//
// clang-format off
#define OPTIBFS_COUNTER_LIST(X)                                              \
  /* engine traversal */                                                     \
  X(kVerticesExplored,         "vertices_explored")                          \
  X(kEdgesScanned,             "edges_scanned")                              \
  X(kDuplicatePops,            "duplicate_pops")                             \
  X(kZeroSlotAborts,           "zero_slot_aborts")                           \
  X(kRevisits,                 "revisits")                                   \
  X(kClaimSkips,               "claim_skips")                                \
  X(kSegmentsClaimed,          "segments_claimed")                           \
  /* steal outcomes (paper Table VI) */                                      \
  X(kStealSuccess,             "steal_success")                              \
  X(kStealFailVictimLocked,    "steal_fail_victim_locked")                   \
  X(kStealFailVictimIdle,      "steal_fail_victim_idle")                     \
  X(kStealFailSegmentTooSmall, "steal_fail_segment_too_small")               \
  X(kStealFailStaleSegment,    "steal_fail_stale_segment")                   \
  X(kStealFailInvalidSegment,  "steal_fail_invalid_segment")                 \
  /* level-loop shape */                                                     \
  X(kLevelsTopDown,            "levels_top_down")                            \
  X(kLevelsBottomUp,           "levels_bottom_up")                           \
  X(kLevelsSerial,             "levels_serial")                              \
  X(kBarrierSpins,             "barrier_spins")                              \
  /* locality layer (DESIGN.md section 3.1a) */                              \
  X(kBottomUpWordsSkipped,     "bottom_up_words_skipped")                    \
  X(kPrefetchIssued,           "prefetch_issued")                            \
  X(kScratchReuses,            "scratch_reuses")                             \
  /* asynchronous family (DESIGN.md section 10) */                           \
  X(kAsyncWastedRelaxations,   "async_wasted_relaxations")                   \
  X(kAsyncLostSettles,         "async_lost_settles")                         \
  X(kAsyncRequeues,            "async_requeues")                             \
  X(kAsyncStealRounds,         "async_steal_rounds")                         \
  X(kAsyncTerminationRounds,   "async_termination_rounds")                   \
  X(kAsyncOverflowBlocks,      "async_overflow_blocks")                      \
  /* MS-BFS */                                                               \
  X(kWaves,                    "waves")                                      \
  X(kWaveSources,              "wave_sources")                               \
  /* fork-join pool substrate */                                             \
  X(kPoolTasksExecuted,        "pool_tasks_executed")                        \
  /* dynamic graphs (DESIGN.md section 9) */                                 \
  X(kEdgesInserted,            "edges_inserted")                             \
  X(kEdgesDeleted,             "edges_deleted")                              \
  X(kUpdateBatches,            "update_batches")                             \
  X(kCompactions,              "compactions")                                \
  X(kRepairWaves,              "repair_waves")                               \
  X(kConeRecomputes,           "cone_recomputes")                            \
  X(kResultsRepaired,          "results_repaired")                           \
  X(kResultsRevalidated,       "results_revalidated")                        \
  /* kernel substrate (DESIGN.md section 11) */                              \
  X(kKernelRounds,             "kernel_rounds")                              \
  X(kKernelActivations,        "kernel_activations")                         \
  X(kKernelDupActivations,     "kernel_dup_activations")                     \
  X(kKernelRepairPasses,       "kernel_repair_passes")                       \
  X(kKernelRepairFixes,        "kernel_repair_fixes")                        \
  X(kKernelConflictDemotes,    "kernel_conflict_demotes")                    \
  X(kKernelRmwOps,             "kernel_rmw_ops")                             \
  /* memory topology / placement (DESIGN.md section 13) */                   \
  X(kFirstTouchBytes,          "first_touch_bytes")                          \
  X(kHugePageAdvises,          "huge_page_advises")                          \
  X(kThpBytesPromoted,         "thp_bytes_promoted")                         \
  X(kThreadPins,               "thread_pins")                                \
  X(kNumaBindCalls,            "numa_bind_calls")                            \
  /* storage tier (DESIGN.md section 12) */                                  \
  X(kStorageMapBytes,          "storage_map_bytes")                          \
  X(kStorageAdviseCalls,       "storage_advise_calls")                       \
  X(kStorageEvictions,         "storage_evictions")                          \
  X(kStorageMajorFaults,       "storage_major_fault_estimate")               \
  /* query service */                                                        \
  X(kQueriesSubmitted,         "queries_submitted")                          \
  X(kQueriesCompleted,         "queries_completed")                          \
  X(kQueriesCacheHit,          "queries_cache_hit")                          \
  X(kQueriesRejected,          "queries_rejected")                           \
  X(kQueriesTimedOut,          "queries_timed_out")                          \
  X(kQueriesStaleGraph,        "queries_stale_graph")                        \
  X(kQueriesShutdownFlushed,   "queries_shutdown_flushed")                   \
  X(kSingleDispatches,         "single_dispatches")                          \
  X(kKernelQueries,            "kernel_queries")                             \
  X(kKernelCacheHits,          "kernel_cache_hits")                          \
  X(kKernelRecomputes,         "kernel_recomputes")                          \
  X(kKernelCarries,            "kernel_carries")                             \
  X(kKernelCarryFallbacks,     "kernel_carry_fallbacks")                     \
  /* serving core: tenants, replicas, watches (DESIGN.md section 4) */    \
  X(kQueriesShed,              "queries_shed")                               \
  X(kQueriesQuotaRejected,     "queries_quota_rejected")                     \
  X(kReplicaDispatches,        "replica_dispatches")                         \
  X(kUpdatesOverlappedReads,   "updates_overlapped_reads")                   \
  X(kWatchesNotified,          "watches_notified")                           \
  X(kWatchRepairs,             "watch_repairs")                              \
  X(kWatchRecomputes,          "watch_recomputes")                           \
  X(kWatchesUnchanged,         "watches_unchanged")                          \
  /* tracing self-accounting */                                              \
  X(kTraceEventsDropped,       "trace_events_dropped")
// clang-format on

/// Counter ids. Unscoped on purpose: counters index slabs and
/// snapshots, so `ctr[kRevisits]` style arithmetic should read cleanly.
enum Counter : std::uint32_t {
#define OPTIBFS_COUNTER_ENUM(id, name) id,
  OPTIBFS_COUNTER_LIST(OPTIBFS_COUNTER_ENUM)
#undef OPTIBFS_COUNTER_ENUM
      kNumCounters
};

/// JSON/report name of a counter (stable across build modes).
const char* counter_name(Counter c);

/// Value-semantics aggregate of every counter: what a registry hands
/// back at a quiescent point and what BFSResult/benches carry around.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  std::uint64_t& operator[](Counter c) { return values[c]; }
  std::uint64_t operator[](Counter c) const { return values[c]; }

  CounterSnapshot& operator+=(const CounterSnapshot& other) {
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] += other.values[i];
    return *this;
  }

  bool any() const {
    for (std::uint64_t v : values)
      if (v != 0) return true;
    return false;
  }

  /// `{"vertices_explored":123,...}` — zero-valued counters are skipped
  /// unless include_zero so bench cells stay compact.
  std::string to_json(bool include_zero = false) const;
};

/// Per-slot plain-store counter slabs. A "slot" is one writer (a worker
/// thread, or a mutex-guarded subsystem); writers bump their own slab
/// with plain increments and never touch another slot's.
class CounterRegistry {
 public:
  explicit CounterRegistry(int slots) : slabs_(static_cast<std::size_t>(slots)) {}

  int num_slots() const { return static_cast<int>(slabs_.size()); }

  /// The slot's raw counter array, for the owning thread's plain
  /// `++slab[kFoo]` increments. Valid only while the registry lives.
  std::uint64_t* slab(int slot) { return slabs_[static_cast<std::size_t>(slot)].v; }

  /// Relaxed atomic increment, for slots that may be aggregated while
  /// the writer is still live (ForkJoinPool). Never mix with plain
  /// writes on the same slot.
  void bump_relaxed(int slot, Counter c, std::uint64_t n = 1) {
    std::atomic_ref<std::uint64_t>(slabs_[static_cast<std::size_t>(slot)].v[c])
        .fetch_add(n, std::memory_order_relaxed);
  }

  /// Zeroes one slot. Callers own the slot or hold its guard.
  void reset_slot(int slot) {
    for (std::uint64_t& v : slabs_[static_cast<std::size_t>(slot)].v) v = 0;
  }

  void reset() {
    for (int s = 0; s < num_slots(); ++s) reset_slot(s);
  }

  /// Sums every slot. Reads use relaxed atomic_ref so live slots
  /// (bump_relaxed writers) stay TSan-clean; quiescent plain-store
  /// slots are separated from the read by a join/barrier anyway.
  CounterSnapshot aggregate() const {
    CounterSnapshot out;
    for (const Slab& slab : slabs_)
      for (std::size_t i = 0; i < kNumCounters; ++i)
        out.values[i] += std::atomic_ref<const std::uint64_t>(slab.v[i]).load(
            std::memory_order_relaxed);
    return out;
  }

 private:
  // One cache-line-aligned slab per writer so neighbouring slots never
  // false-share (the slab itself spans several lines, but only its own
  // writer touches them during a run).
  struct alignas(64) Slab {
    std::uint64_t v[kNumCounters] = {};
  };
  std::vector<Slab> slabs_;
};

}  // namespace optibfs::telemetry
