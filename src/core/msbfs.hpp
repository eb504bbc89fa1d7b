// Multi-source BFS (MS-BFS) — batched traversal extension.
//
// The paper's measurement protocol and every BFS-batch application
// (closeness/betweenness sampling, the 1000-source loop) run many
// independent BFS traversals over the same graph. MS-BFS (Then et al.,
// VLDB 2015) runs up to 64 of them *simultaneously*: each vertex carries
// a bitmask of the sources that have reached it, and a frontier vertex
// expands once per level on behalf of every set bit. On overlapping
// traversals this amortizes the adjacency scans that dominate BFS.
//
// Parallelization here follows the library's house style: the frontier
// is drained with the optimistic centralized-queue discipline (relaxed
// fetch, clearing trick). The per-vertex bitmask updates use relaxed
// atomic fetch_or — unlike the single-source engines this *does* use an
// atomic RMW, because "visited by which sources" is a 64-way set where
// lost updates would change results, not just duplicate work. The
// honest trade-off is documented in DESIGN.md.
//
// With BFSOptions::direction_mode == kHybrid the wave also direction-
// optimizes: when the alpha rule fires, a level flips to an
// owner-computes bottom-up step in which each thread scans the
// transpose for its slice of not-fully-seen vertices and pulls masks
// straight out of `visit` — no queue traffic, no RMW at all (each
// vertex has exactly one writer), and per-vertex early exit once every
// missing source bit is found. This is what lets a wave keep up with
// the hybrid single-source engines on dense low-diameter graphs.
//
// Two entry points:
//  * multi_source_bfs() — one-shot convenience (allocates everything,
//    runs one wave, tears down).
//  * MsBfsSession — the batch-entry API the query service uses: the
//    visited/visit masks, frontier queue pool, and worker team (owned,
//    or the serving replica's borrowed ThreadTeam) are set up once and
//    reused across waves, so a high-QPS caller pays no per-wave thread
//    create/join and no per-wave allocation. A wave is one team region.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "core/direction_rule.hpp"
#include "core/frontier_queues.hpp"
#include "core/scratch_arena.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/cache_aligned.hpp"
#include "runtime/mem_topology.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/thread_team.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/recorder.hpp"

namespace optibfs {

struct MsBfsResult {
  /// distance[s * n + v]: hops from sources[s] to v, kUnvisited if
  /// unreachable. Row-major by source.
  std::vector<level_t> distance;
  vid_t num_vertices = 0;
  int num_sources = 0;

  /// Per-source pop counts under the library-wide per-pop convention
  /// (BFSResult::vertices_explored): a frontier pop counts once, at the
  /// moment it is popped, attributed to every source bit in the mask it
  /// claims. A duplicate pop (optimistic overlap) claims an empty mask
  /// and therefore counts for no source. Because the mask exchange lets
  /// each (vertex, source) pair expand at most once, entry s equals the
  /// number of vertices reachable from sources[s] — MS-BFS converts the
  /// single-source engines' duplicate-exploration tax into mask
  /// arbitration, and this vector is the observable proof.
  std::vector<std::uint64_t> vertices_explored;

  /// Levels traversed bottom-up (0 unless direction_mode == kHybrid).
  std::uint64_t bottom_up_levels = 0;

  /// Flight-recorder counter snapshot for this wave. vertices_explored
  /// here is at *vertex* granularity (a pop that claims a non-empty
  /// mask counts once, however many source bits it carries);
  /// duplicate_pops counts the empty-mask pops, which MS-BFS — unlike
  /// the single-source engines — can observe directly at the pop site.
  telemetry::CounterSnapshot counters;

  level_t distance_of(int source_index, vid_t v) const {
    return distance[static_cast<std::size_t>(source_index) * num_vertices +
                    v];
  }
};

/// Reusable MS-BFS runner: one allocation of the per-vertex mask arrays
/// and queue pool, one persistent worker set, any number of waves.
class MsBfsSession {
 public:
  /// Largest batch a single wave can carry (one bit per source).
  static constexpr int kMaxBatch = 64;

  /// Owns a team of options.num_threads workers.
  MsBfsSession(const CsrGraph& graph, const BFSOptions& options);

  /// Runs waves on `team` (borrowed; must outlive the session, and runs
  /// one region at a time). The session's width is the team's width.
  MsBfsSession(const CsrGraph& graph, const BFSOptions& options,
               ThreadTeam& team);

  MsBfsSession(const MsBfsSession&) = delete;
  MsBfsSession& operator=(const MsBfsSession&) = delete;

  const CsrGraph& graph() const { return graph_; }
  int team_width() const { return p_; }

  /// Runs BFS from up to kMaxBatch sources simultaneously, reusing
  /// out's buffers. Duplicate sources are allowed (their rows will
  /// match). Throws std::invalid_argument for an empty or oversized
  /// batch, std::out_of_range for bad vertex ids. Not thread-safe:
  /// one wave at a time per session.
  void run(const std::vector<vid_t>& sources, MsBfsResult& out);

  MsBfsResult run(const std::vector<vid_t>& sources) {
    MsBfsResult out;
    run(sources, out);
    return out;
  }

  /// Wave-granular scratch accounting: a wave that found every buffer
  /// (including out's, when the caller reuses it) already sized counts
  /// as a reuse — the service's zero-alloc steady state.
  ArenaStats arena_stats() const { return arena_; }

 private:
  MsBfsSession(const CsrGraph& graph, const BFSOptions& options,
               TeamHandle team);

  /// Thread tid's owned vertex slice (first touch, seen_ reset, pulls).
  std::pair<vid_t, vid_t> owned(int tid) const;
  void run_wave(int tid, MsBfsResult& out);
  void run_level_bottom_up(int tid, level_t depth, MsBfsResult& out);
  /// Barrier-window-only: asks the direction rule whether the next
  /// level runs bottom-up.
  void prepare_direction(std::int64_t next_size);

  const CsrGraph& graph_;
  const BFSOptions opts_;
  const bool hybrid_;  ///< direction_mode == kHybrid && alpha > 0
  const CsrGraph* transpose_ = nullptr;  ///< cached iff hybrid_
  const int p_;

  // Per-vertex source masks, all-zero between waves: each thread clears
  // its owned slice of `seen_` at the end of the wave region, and
  // `visit_`/`visit_next_` end all-zero by construction (every
  // processed vertex exchanges its mask away, and the final level swap
  // happens with an empty next frontier). Placed (DESIGN.md §13): raw
  // unfaulted allocations, optionally huge-page advised, first-touch
  // zeroed by the team over owned slices in the constructor.
  mem::PlacedBuffer<std::atomic<std::uint64_t>> seen_;
  mem::PlacedBuffer<std::atomic<std::uint64_t>> visit_;
  mem::PlacedBuffer<std::atomic<std::uint64_t>> visit_next_;

  FrontierQueues queues_;
  SpinBarrier barrier_;
  std::atomic<std::int32_t> global_queue_{0};
  std::atomic<bool> more_{false};

  // Direction state. The flag is written in the single-threaded barrier
  // window and read by every worker after the second barrier; the
  // bookkeeping fields have a single writer (the window thread).
  std::atomic<bool> bottom_up_level_{false};
  std::uint64_t batch_mask_ = 0;  ///< low num_sources bits set
  DirectionRule direction_;
  std::uint64_t bottom_up_levels_count_ = 0;

  /// Reordered graphs: one scratch row per scattering member (min(p,
  /// sources) rows) for the end-of-wave distance scatter, reused across
  /// waves (zero steady-state alloc).
  std::vector<level_t> remap_scratch_;
  ArenaStats arena_;

  /// Per-thread, per-source pop counters (per-pop convention), merged
  /// into MsBfsResult::vertices_explored after the wave.
  struct ExploredCounts {
    std::uint64_t per_source[kMaxBatch] = {};
  };
  std::vector<CacheAligned<ExploredCounts>> explored_;

  // Flight recorder: per-thread counter slabs (aggregated after the
  // team joins) and event-ring handles (bound on first traced wave).
  telemetry::CounterRegistry counters_;
  std::vector<telemetry::ThreadTrace> traces_;
  telemetry::ThreadTrace wave_trace_;  ///< caller-side whole-wave spans
  bool trace_slots_acquired_ = false;

  TeamHandle team_;  ///< declared last: workers must never outlive state
};

/// One-shot convenience wrapper: builds a temporary session (private
/// worker team) and runs a single wave. See MsBfsSession for the
/// reusable batch-entry API.
MsBfsResult multi_source_bfs(const CsrGraph& graph,
                             const std::vector<vid_t>& sources,
                             const BFSOptions& options);

}  // namespace optibfs
