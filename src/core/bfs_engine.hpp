// Engine scaffolding shared by every parallel BFS variant.
//
// A ParallelBFS instance owns its worker team, barrier, frontier queue
// pool, and per-thread state, and is reused across sources — the same
// amortization the paper gets from persistent cilk workers over its
// 1000-source measurement loops. Subclasses implement one virtual,
// consume_level(), which drains the current in-queues using the
// variant's load-balancing discipline; everything else (the
// level-synchronous loop, queue swapping, discovery, statistics,
// verification-friendly result assembly) lives here.
//
// Memory-model note (see DESIGN.md §2): every "unprotected" shared
// access from the paper — queue fronts, the global queue pointer, the
// per-thread steal blocks ⟨q,f,r⟩, queue slots, level/parent entries —
// is a std::atomic / std::atomic_ref access with memory_order_relaxed.
// On x86 these compile to the same plain MOVs the paper's C++ emits, so
// the lock-free variants execute zero lock-prefixed instructions in
// their load-balancing paths; the relaxed ordering merely makes the
// deliberate races defined behaviour. The level barrier supplies the
// inter-level synchronization, exactly as the paper's level-synchronous
// design assumes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/bfs_options.hpp"
#include "core/bfs_result.hpp"
#include "core/frontier_queues.hpp"
#include "core/scratch_arena.hpp"
#include "core/steal_stats.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/cache_aligned.hpp"
#include "runtime/mem_topology.hpp"
#include "runtime/rng.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/spin_lock.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/topology.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/recorder.hpp"

namespace optibfs {

/// Abstract interface every BFS engine implements. Obtain instances
/// through make_bfs() (core/registry.hpp).
class ParallelBFS {
 public:
  virtual ~ParallelBFS() = default;

  /// Runs one BFS from `source` into `out`, reusing out's buffers.
  virtual void run(vid_t source, BFSResult& out) = 0;

  BFSResult run(vid_t source) {
    BFSResult out;
    run(source, out);
    return out;
  }

  /// Table II acronym ("BFS_CL", "BFS_WSL", ...).
  virtual std::string_view name() const = 0;

  virtual const BFSOptions& options() const = 0;

  /// Scratch-arena accounting for implementations that reuse per-graph
  /// buffers across runs (the optimistic engine family, MS-BFS). The
  /// default — serial oracle, baselines — reports nothing.
  virtual ArenaStats arena_stats() const { return {}; }

  /// Worker threads successfully pinned to a cpu (BFSOptions::
  /// pin_threads). The default — engines without a persistent team, or
  /// with pinning off — reports 0.
  virtual int pinned_threads() const { return 0; }
};

class BFSEngineBase : public ParallelBFS {
 public:
  void run(vid_t source, BFSResult& out) final;
  std::string_view name() const final { return name_; }
  const BFSOptions& options() const final { return opts_; }
  ArenaStats arena_stats() const final { return arena_; }
  int pinned_threads() const final { return team_.pinned_threads(); }

 protected:
  BFSEngineBase(std::string name, const CsrGraph& graph, BFSOptions opts);

  /// Per-worker mutable state. One cache-aligned instance per thread;
  /// the atomic members form the work-stealing control block that other
  /// threads read (and, for `seg_rear`, write) optimistically.
  struct ThreadState {
    // ---- steal block: shared, relaxed-only access ----
    std::atomic<std::int32_t> seg_queue{0};   ///< queue id q
    std::atomic<std::int64_t> seg_front{0};   ///< front pointer f
    std::atomic<std::int64_t> seg_rear{0};    ///< rear pointer r
    std::atomic<bool> has_work{false};        ///< false once out of work
    SpinLock lock;                            ///< lock-based variants only

    // ---- private to the owning thread ----
    /// The thread's flight-recorder counter slab (counters_.slab(tid),
    /// re-pointed at the start of every run). All per-thread statistics
    /// — explored/scanned tallies, steal outcomes, barrier spins — are
    /// plain `++ctr[telemetry::kFoo]` bumps into this slab, aggregated
    /// once after the team joins.
    std::uint64_t* ctr = nullptr;
    telemetry::ThreadTrace trace;         ///< event ring handle (may be idle)
    std::uint64_t visited_in_slice = 0;   ///< result-assembly partial
    level_t max_level_in_slice = 0;
    std::vector<vid_t> hotspots;          ///< scale-free phase-1 deferrals
    Xoshiro256 rng{0};
  };

  /// Drains the current level's in-queues. Runs on every thread; must
  /// leave all p threads having executed the same number of barrier_
  /// phases (scale-free variants use two internal phases).
  /// `level` is the level of the vertices in the in-queues.
  virtual void consume_level(int tid, level_t level) = 0;

  /// Invoked (single-threaded) between levels after the queue swap —
  /// variants reset their level-scoped shared state here.
  virtual void on_level_prepared() {}

  // ---- helpers for subclasses ----

  /// Scans all of v's out-neighbors, discovering unvisited ones into
  /// thread tid's out-queue.
  void visit_neighbors(int tid, vid_t v, level_t next_level) {
    const auto nbrs = graph_.out_neighbors(v);
    visit_neighbor_range(tid, v, next_level, 0, nbrs.size());
  }

  /// Scans neighbors [lo, hi) of v only (scale-free phase-2 chunks).
  void visit_neighbor_range(int tid, vid_t v, level_t next_level,
                            std::size_t lo, std::size_t hi);

  /// Pops slot `index` of in-queue q and fully processes it: clearing,
  /// claim check, hotspot deferral, neighbor visit, statistics.
  /// Returns false if the slot was empty (the caller's abort signal).
  bool process_slot(int tid, int q, std::int64_t index, level_t level);

  /// Paper's adaptive segment size: recomputed at every dispatch from
  /// the vertices remaining and p. Honors opts_.segment_size when fixed;
  /// with opts_.edge_balanced_segments it targets a fixed per-dispatch
  /// edge budget through the frontier's mean degree instead.
  ///
  /// Partition condition for the optimistic fetch (BFS_CL, BFS_DL): the
  /// result must depend only on `remaining` (= rear - front at the
  /// fetch) and per-level constants. Threads that read the same front
  /// then claim the same segment, so segments partition the queue and a
  /// thread that stops at a slot another already cleared never leaves
  /// the tail of a longer segment unconsumed.
  std::int64_t segment_size(std::int64_t remaining) const;

  /// Mean out-degree of the current frontier (>= 1). Recomputed in the
  /// single-threaded window after every queue swap; stable during a
  /// level. Drives edge-balanced segment sizing (base and BFS_EBL).
  std::int64_t frontier_mean_degree() const { return frontier_mean_degree_; }

  /// MAX_STEAL = c * p * log2(p) (balls-and-bins bound), at least 1.
  int max_steal_attempts(int population) const;

  /// Picks a random victim != tid, socket-local when `prefer_local` and
  /// NUMA policy is on.
  int pick_victim(int tid, bool prefer_local);

  bool scale_free() const { return degree_threshold_ != 0; }
  vid_t degree_threshold() const { return degree_threshold_; }

  /// Runs the two-phase hotspot epilogue (gather + chunked/stolen
  /// adjacency exploration). Scale-free variants call it at the end of
  /// consume_level on every thread. Costs two barrier phases (three in
  /// kStealing mode).
  void explore_hotspots(int tid, level_t level);

  /// Small-frontier hybrid: drains every in-queue on the calling thread
  /// with no coordination at all (no segments, no stealing, hotspots
  /// explored inline). Used when serial_frontier_cutoff triggers.
  void drain_level_serially(int tid, level_t level);

  const CsrGraph& graph_;
  const BFSOptions opts_;
  const int p_;
  Topology topology_;
  FrontierQueues queues_;
  SpinBarrier barrier_;
  std::vector<CacheAligned<ThreadState>> ts_;
  telemetry::CounterRegistry counters_;  ///< one slab per worker

  ThreadState& state(int tid) { return ts_[static_cast<std::size_t>(tid)].value; }

 protected:
  /// Called by scale-free subclass constructors: computes the effective
  /// degree threshold (options override or adaptive multiple of the
  /// mean degree) and allocates phase-2 state.
  void enable_scale_free();

 private:
  /// One bottom-up level (kHybrid only; runs on every thread in place of
  /// consume_level). Retires the thread's own in-queue, publishes the
  /// frontier as a bitmap (owned words only), then scans the owned
  /// word-aligned vertex slice of the transpose for unvisited vertices.
  /// Owner-computes: no shared writes, hence no locks and no atomic RMW
  /// anywhere on this path. Costs one internal barrier phase.
  void consume_level_bottom_up(int tid, level_t level);

  /// Single-threaded (barrier window): updates the alpha/beta direction
  /// bookkeeping and decides whether the next level (of `next_size`
  /// frontier vertices) runs bottom-up. No-op unless kHybrid.
  void prepare_direction(std::int64_t next_size);

  /// Phase-2 stealing mode: takes the upper half of the remaining
  /// adjacency range of the hotspot some victim is draining and
  /// explores it. Returns false after MAX_STEAL consecutive failures.
  bool steal_adjacency_range(int tid, level_t level);

  /// Phase-2 stealing mode: drains hotspot slot `slot` of the level's
  /// gathered hotspots (its rear is shared with concurrent thieves).
  void drain_adjacency_range(int tid, std::size_t slot, level_t level);

  const std::string name_;
  vid_t degree_threshold_ = 0;  ///< 0 = plain variant (set by scale-free)

  // ---- level-loop shared state (written between barriers) ----
  std::atomic<bool> more_levels_{false};
  std::atomic<bool> serial_next_level_{false};
  bool trace_slots_acquired_ = false;  ///< per-thread rings bound once
  BFSResult* out_ = nullptr;  ///< valid during run()

  // ---- scratch arena (DESIGN.md §3.1a): zero-alloc reruns ----
  // Traversal works entirely on these engine-owned buffers in the
  // graph's *internal* ID space; the final materialize pass decodes
  // stamps, counts the visited slice, and scatters level/parent into
  // `out` in *original* IDs — one O(n) pass where the old scheme spent
  // two (init wipe + final count). Sized lazily on first run, then
  // reused forever (ArenaStats audits this). PlacedBuffers (DESIGN.md
  // §13): allocation leaves pages unfaulted; the first run's parallel
  // region zeroes each thread's owner-computes slice, so first-touch
  // places every page on the worker's socket, and huge_pages advises
  // 2 MiB backing.
  mem::PlacedBuffer<stamp_t> stamped_level_;  ///< packed (epoch, level)
  mem::PlacedBuffer<vid_t> parent_scratch_;   ///< internal-ID parents
  std::uint32_t epoch_ = 0;             ///< current run's stamp epoch
  ArenaStats arena_;

  // ---- placement bookkeeping (DESIGN.md §13) ----
  bool first_run_done_ = false;  ///< first-touch init still pending
  std::uint64_t thp_baseline_ = 0;       ///< AnonHugePages at ctor
  std::uint32_t placement_huge_advises_ = 0;
  std::uint32_t placement_numa_binds_ = 0;

  // §IV-D parent-claim array (allocated only when the option is on).
  std::vector<std::atomic<std::int32_t>> claim_;

  // §IV-D visited bitmap (allocated only when the option is on).
  std::vector<std::atomic<std::uint64_t>> visited_bits_;

  // ---- scale-free phase-2 shared state ----
  std::vector<vid_t> level_hotspots_;
  // kStealing mode, per hotspot slot: the owner's front and the
  // thief-writable rear of the slot's adjacency range (set in the gather
  // window, then relaxed atomic_ref accesses). A steal only ever shortens
  // the range of the hotspot it then explores itself, so a thief acting
  // on a stale slot costs duplicate edge scans, never a lost range.
  std::vector<std::int64_t> hotspot_front_;
  std::vector<std::int64_t> hotspot_rear_;
  // kStealing mode, per thread: the hotspot slot it is draining, or
  // kInvalidVertex.
  std::vector<CacheAligned<std::atomic<vid_t>>> draining_;

  // ---- hybrid direction state (allocated only under kHybrid) ----
  const CsrGraph* transpose_ = nullptr;  ///< cached &graph_.transpose()
  /// Frontier-as-bitmap for bottom-up levels. Each thread writes only
  /// the words of its own word-aligned slice (relaxed stores; the level
  /// barrier publishes them) — word granularity is what removes the
  /// fetch_or the direction-optimizing baseline needs.
  mem::PlacedBuffer<std::atomic<std::uint64_t>> frontier_bits_;
  /// Word-scan summary bitmaps (bottom_up_word_scan; DESIGN.md §3.1a).
  /// Bit v of word v/64 set = v still unvisited / discovered this
  /// bottom-up level. Strictly thread-private at word granularity: the
  /// word-aligned slice owner is the only thread that ever reads or
  /// writes a word, in every pass, so these are plain (non-atomic)
  /// vectors — stricter even than the benign-race discipline the rest
  /// of the engine runs under.
  mem::PlacedBuffer<std::uint64_t> unvisited_words_;
  mem::PlacedBuffer<std::uint64_t> discovered_words_;
  /// True while unvisited_words_/discovered_words_ describe the current
  /// frontier (consecutive word-scan bottom-up levels). Single writer:
  /// the barrier-window thread in prepare_direction.
  std::atomic<bool> unvisited_valid_{false};
  std::atomic<bool> bottom_up_level_{false};  ///< set in barrier window
  // Alpha/beta bookkeeping; single writer (the barrier-window thread).
  std::uint64_t edges_unexplored_ = 0;
  std::uint64_t frontier_edges_ = 0;
  std::int64_t frontier_size_ = 0;  ///< previous level, for the growth check
  std::int64_t frontier_mean_degree_ = 1;

 protected:
  // Discovery primitive shared with process_slot; exposed for phase-2.
  void discover(int tid, vid_t from, vid_t w, level_t next_level);

  BFSResult& result() { return *out_; }

  ThreadTeam team_;  ///< declared last: workers must never outlive state
};

}  // namespace optibfs
