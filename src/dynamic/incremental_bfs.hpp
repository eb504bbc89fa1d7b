// Incremental BFS repair over a GraphSnapshot — the dynamic-graph
// counterpart of the optimistic engines in src/core/.
//
// Given a level array that was correct *before* an update batch and the
// snapshot *after* it, repair() fixes the array in place instead of
// recomputing from scratch:
//
//   * insertions seed an optimistic downward-relaxation wave. The wave
//     is level-synchronous; within a wave of depth d every admitted
//     vertex's level is stored as exactly d by however many threads race
//     on it — the paper's invariant-1 benign race (all racing writers
//     store the same value), expressed through relaxed std::atomic_ref
//     plain stores. A vertex's level only ever decreases during a wave
//     sweep, so duplicate admissions cost duplicate work, never
//     correctness. No locks, no atomic RMW.
//
//   * deletions are handled conservatively: the pre-pass walks the
//     *invalidation cone* — every vertex whose old shortest path may
//     have run through a deleted tree edge (old-level-consistent
//     reachability from the deletion targets, with alternate-parent
//     pruning) — clears it to kUnvisited, and re-seeds the wave from
//     the cone's surviving in-boundary. If the cone outgrows a
//     configurable fraction of n the repair bails out *before touching
//     the array* (the caller recomputes from scratch; the old levels
//     remain valid for the pre-batch version).
//
// recompute() runs a from-scratch BFS through the same wave machinery —
// both the fallback path and the apples-to-apples baseline that
// bench_dynamic compares repair against.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/types.hpp"
#include "runtime/cache_aligned.hpp"
#include "runtime/fork_join_pool.hpp"
#include "runtime/spin_barrier.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/recorder.hpp"

namespace optibfs {

/// Can `summary` change any distance in `levels` (a correct level array
/// for the snapshot *before* the batch)? Exact for inserts — an insert
/// matters only if it relaxes its target *and* survived into the
/// post-batch snapshot (one batch may insert and then delete the same
/// edge, listing it on both sides) — and conservative for deletes: a
/// severed shortest-path-tree edge (levels[v] == levels[u] + 1 with u
/// reached) *may* have an alternate parent, so a true return means
/// "repair and compare", not "distances changed". Shared by the
/// service's cone-scoped cache migration and the scale-out tier's
/// continuous-query rollforward (DESIGN.md sections 4 and 9).
bool batch_affects_levels(const GraphSnapshot& snap,
                          const std::vector<level_t>& levels,
                          const BatchSummary& summary);

/// What one repair() did (also the bench's per-batch record).
struct RepairOutcome {
  /// False = the deletion cone blew past the threshold and the level
  /// array was left untouched; the caller must recompute().
  bool repaired = true;
  std::uint64_t cone_size = 0;     ///< vertices invalidated by deletions
  std::uint64_t seeds = 0;         ///< wave seeds (cone boundary + inserts)
  std::uint64_t waves = 0;         ///< repair wave levels run
  std::uint64_t admitted = 0;      ///< vertices whose level changed (incl. dups)
  std::uint64_t edges_relaxed = 0; ///< out-edges scanned by relax phases
};

class IncrementalBfsEngine {
 public:
  struct Config {
    /// Fall back to recompute when the deletion cone exceeds this
    /// fraction of n (the repair-vs-recompute crossover; see
    /// EXPERIMENTS.md). <= 0 forces fallback on any non-empty cone.
    double cone_recompute_fraction = 0.25;
    /// Estimated repair work (seeds + cone) below which waves run
    /// serially on the calling thread — parallel dispatch on a
    /// two-vertex ripple is pure overhead. 0 forces the parallel path
    /// (tests use this to exercise the benign races under TSan).
    std::uint64_t parallel_cutoff = 2048;
    /// Thread count, telemetry recorder, seed (other fields unused).
    BFSOptions bfs;
  };

  /// Owns a private ForkJoinPool of bfs.num_threads workers.
  IncrementalBfsEngine() : IncrementalBfsEngine(Config{}) {}
  explicit IncrementalBfsEngine(Config config);
  /// Borrows `pool` (must outlive the engine; num_threads is clamped to
  /// its worker count). The service shares one pool across the MS-BFS
  /// session and repair waves.
  IncrementalBfsEngine(Config config, ForkJoinPool& pool);
  ~IncrementalBfsEngine();

  IncrementalBfsEngine(const IncrementalBfsEngine&) = delete;
  IncrementalBfsEngine& operator=(const IncrementalBfsEngine&) = delete;

  /// Repairs `level` (original-ID levels from `source`, correct for the
  /// snapshot before `batch`) to be correct for `snap` (the snapshot
  /// after `batch`). Returns repaired=false without touching `level`
  /// when the deletion cone exceeds the configured fraction of n.
  RepairOutcome repair(const GraphSnapshot& snap, const BatchSummary& batch,
                       vid_t source, std::vector<level_t>& level);

  /// From-scratch BFS over CSR ∪ delta into `level` (resized/cleared
  /// here), using the same wave machinery as repair.
  RepairOutcome recompute(const GraphSnapshot& snap, vid_t source,
                          std::vector<level_t>& level);

  /// Counter totals across every repair/recompute this engine ran
  /// (vertices_explored / edges_scanned / repair_waves /
  /// cone_recomputes), aggregated at quiescent points only.
  telemetry::CounterSnapshot telemetry_counters() const { return totals_; }

 private:
  struct Lane {
    std::vector<vid_t> active;  ///< admitted this wave, to relax
    std::vector<vid_t> next;    ///< improvement candidates for wave d+1
  };

  int threads() const { return p_; }
  ForkJoinPool& pool();
  /// Collects the deletion cone into mark_/cone_. Returns false when it
  /// exceeds `cap` (nothing mutated).
  bool collect_cone(const GraphSnapshot& snap, const BatchSummary& batch,
                    const std::vector<level_t>& level, std::uint64_t cap,
                    RepairOutcome& out);
  void build_seeds(const GraphSnapshot& snap, const BatchSummary& batch,
                   std::vector<level_t>& level, RepairOutcome& out);
  /// Runs the seeded wave loop (serial or team-parallel).
  void run_waves(const GraphSnapshot& snap, std::vector<level_t>& level,
                 bool parallel, RepairOutcome& out);
  void wave_worker(int tid, const GraphSnapshot& snap, level_t* level);
  /// Single-threaded barrier window: merges lanes + due seeds into the
  /// wave-d frontier. Returns false when the wave loop is done.
  bool prepare_wave(bool first);
  void finish_run(RepairOutcome& out);

  Config config_;
  int p_;
  ForkJoinPool* borrowed_pool_ = nullptr;
  std::unique_ptr<ForkJoinPool> owned_pool_;
  SpinBarrier barrier_;
  telemetry::CounterRegistry counters_;  ///< p_ worker slabs + 1 window slab
  telemetry::CounterSnapshot totals_;
  telemetry::ThreadTrace trace_;

  // Wave-loop state. Written by the caller and the serial barrier
  // windows only; workers read frontier_/wave_d_/wave_done_ strictly
  // after a barrier arrival, so plain members suffice.
  std::vector<std::pair<level_t, vid_t>> seeds_;  ///< sorted by level
  std::size_t seed_cursor_ = 0;
  std::vector<vid_t> frontier_;
  std::vector<CacheAligned<Lane>> lanes_;
  level_t wave_d_ = 0;
  bool wave_done_ = false;
  std::uint64_t waves_this_run_ = 0;

  // Cone scratch: stamped marks so steady-state repairs never re-zero
  // an n-sized array (scratch_arena discipline, DESIGN.md §3.1a).
  std::vector<std::uint32_t> mark_;
  std::uint32_t mark_gen_ = 0;
  std::vector<vid_t> cone_;
};

}  // namespace optibfs
