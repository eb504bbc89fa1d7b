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
// transpose for its slice of vertices still missing a *live* source
// and pulls masks straight out of `visit` — no queue traffic, no RMW at
// all (each vertex has exactly one writer), and per-vertex early exit
// once every missing live bit is found. A source is live while the
// previous level found new vertices for it; a source whose BFS has
// ended (an isolated vertex, a small component) drops out of every
// later bottom-up scan instead of sending each vertex through its whole
// in-list. This is what lets a wave keep up with the hybrid
// single-source engines on dense low-diameter graphs.
//
// Levels are recorded bit-sliced, per vertex and per level, never per
// (source, vertex) inside the traversal: bit s of plane k at v is bit k
// of v's distance from source s. A frontier vertex's mask is consumed
// exactly once per level — by the top-down pop that wins the `visit`
// exchange, or by the bottom-up owner that retires it — and that one
// consumer ORs the mask into the planes of the level's set bits with
// plain stores. Planes are allocated and zeroed on first use, when a
// wave on the session first goes 2^k levels deep. The wave's tail is one
// streaming pass per member over its slice of original ids: it decodes
// seen masks and planes into each source's row, tallies the per-source
// counts from the final masks, and zeroes what it read for the next wave.
//
// Two entry points:
//  * multi_source_bfs() — one-shot convenience (allocates everything,
//    runs one wave, tears down).
//  * MsBfsSession — the batch-entry API the query service uses: the
//    visited/visit masks, level planes, frontier queue pool, and worker
//    team (owned, or the serving replica's borrowed ThreadTeam) are set
//    up once and reused across waves, so a high-QPS caller pays no
//    per-wave thread create/join and no per-wave scratch allocation. A
//    wave is one team region.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
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
  /// distance[s][v]: hops from sources[s] to v, kUnvisited if
  /// unreachable — one row per source, indexed by original vertex id.
  /// Rows are separate vectors so a caller can move one out (the
  /// serving core hands each to its result cache) without copying; the
  /// next wave on this result then allocates a fresh row in its place.
  std::vector<std::vector<level_t>> distance;
  vid_t num_vertices = 0;
  int num_sources = 0;

  /// Per-source pop counts under the library-wide per-pop convention
  /// (BFSResult::vertices_explored): a frontier pop counts once, at the
  /// moment it is popped, attributed to every source bit in the mask it
  /// claims. A duplicate pop (optimistic overlap) claims an empty mask
  /// and therefore counts for no source. Because the mask exchange lets
  /// each (vertex, source) pair expand exactly once — at the level that
  /// is its distance — the pops for source s are one per vertex whose
  /// final seen mask holds bit s. The wave's output pass tallies it
  /// that way, from the final masks, instead of counting bits at every
  /// pop. Entry s equals the number of vertices reachable from
  /// sources[s]: MS-BFS converts the single-source engines'
  /// duplicate-exploration tax into mask arbitration, and this vector
  /// is the observable proof.
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
    return distance[static_cast<std::size_t>(source_index)][v];
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
  /// batch, std::out_of_range for bad vertex ids. A wave that goes
  /// deeper than any before it on this session allocates a level plane
  /// inside its team region; if that allocation throws, the wave ends
  /// at the next level boundary, every member scrubs its slice of the
  /// masks and planes, and run() rethrows after the join, leaving the
  /// session ready for the next wave (out's contents are then
  /// unspecified). Not thread-safe: one wave at a time per session.
  void run(const std::vector<vid_t>& sources, MsBfsResult& out);

  MsBfsResult run(const std::vector<vid_t>& sources) {
    MsBfsResult out;
    run(sources, out);
    return out;
  }

  /// Wave-granular allocation accounting: a wave that found every
  /// buffer already sized counts as a reuse. It counts the session's
  /// level planes and out's rows: a caller that reuses out, on a wave
  /// no deeper than an earlier one, allocates nothing. A row the caller
  /// moved out (the serving core hands each to its result cache) is
  /// allocated afresh by the next wave, which then counts as an
  /// allocation even though every scratch buffer was reused.
  ArenaStats arena_stats() const { return arena_; }

 private:
  MsBfsSession(const CsrGraph& graph, const BFSOptions& options,
               TeamHandle team);

  /// Enough planes for any distance a level_t holds.
  static constexpr int kMaxPlanes = 32;

  /// The planes a level at one depth writes: one per set bit of depth.
  struct LevelPlanes {
    std::uint64_t* plane[kMaxPlanes] = {};
    int count = 0;
    /// Records `mask`'s sources as reaching v at this depth. The caller
    /// is v's only consumer this level, so plain stores suffice.
    void record(vid_t v, std::uint64_t mask) const {
      for (int i = 0; i < count; ++i) plane[i][v] |= mask;
    }
  };

  /// Thread tid's owned vertex slice (first touch, pulls, scrubbing;
  /// the output pass slices original ids the same way).
  std::pair<vid_t, vid_t> owned(int tid) const;
  LevelPlanes level_planes(level_t depth);
  void run_wave(int tid, MsBfsResult& out);
  /// One level each; both return the source bits this member's
  /// discoveries carried, for the window's fold into live_.
  std::uint64_t run_level_top_down(int tid, level_t depth);
  std::uint64_t run_level_bottom_up(int tid, level_t depth);
  /// Barrier-window-only: swaps the frontier, folds live_, grows the
  /// next level's plane and asks the direction rule about it.
  void end_level(level_t depth);
  /// Barrier-window-only: asks the direction rule whether the next
  /// level runs bottom-up.
  void prepare_direction(std::int64_t next_size);
  /// The wave's tail: decodes this member's slice of original ids into
  /// out's rows from seen_ and the first `planes` planes, tallies the
  /// per-source counts, and zeroes what it read.
  void write_rows(int tid, int planes, MsBfsResult& out);
  /// Failure tail: zeroes this member's slice of every mask and plane.
  void scrub(int tid);

  const CsrGraph& graph_;
  const BFSOptions opts_;
  const bool hybrid_;  ///< direction_mode == kHybrid && alpha > 0
  const CsrGraph* transpose_ = nullptr;  ///< cached iff hybrid_
  const int p_;

  // Per-vertex source masks, all-zero between waves: the output pass
  // zeroes each seen_ word it decodes, and `visit_`/`visit_next_` end
  // all-zero by construction (every processed vertex exchanges its mask
  // away, and the final level swap happens with an empty next
  // frontier). Placed (DESIGN.md §13): raw unfaulted allocations,
  // optionally huge-page advised, first-touch zeroed by the team over
  // owned slices in the constructor.
  mem::PlacedBuffer<std::atomic<std::uint64_t>> seen_;
  mem::PlacedBuffer<std::atomic<std::uint64_t>> visit_;
  mem::PlacedBuffer<std::atomic<std::uint64_t>> visit_next_;

  // Bit-sliced levels: bit s of planes_[k][v] is bit k of v's distance
  // from source s. All-zero between waves (the output pass zeroes what
  // it reads). The first num_planes_ are allocated; the barrier window
  // grows the next one when a wave first reaches depth 2^k.
  std::array<mem::PlacedBuffer<std::uint64_t>, kMaxPlanes> planes_;
  int num_planes_ = 0;
  std::exception_ptr wave_error_;  ///< a plane growth that threw

  FrontierQueues queues_;
  SpinBarrier barrier_;
  std::atomic<std::int32_t> global_queue_{0};
  std::atomic<bool> more_{false};

  // Direction state. The flag is written in the single-threaded barrier
  // window and read by every worker after the second barrier; the
  // bookkeeping fields have a single writer (the window thread).
  std::atomic<bool> bottom_up_level_{false};
  /// Sources the current frontier carries: the seeds' bits, then the
  /// OR of every member's discoveries in the previous level. Written in
  /// the window, read by the bottom-up pull.
  std::uint64_t live_ = 0;
  DirectionRule direction_;
  std::uint64_t bottom_up_levels_count_ = 0;
  ArenaStats arena_;

  /// Per-member tallies, each on cache lines of its own: the source
  /// bits its discoveries carried this level (folded in the window) and
  /// its output-pass per-source counts (merged after the join).
  struct MemberTally {
    std::uint64_t found = 0;
    std::uint64_t reached[kMaxBatch] = {};
  };
  std::vector<CacheAligned<MemberTally>> tallies_;

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
