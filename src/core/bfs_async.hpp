// Asynchronous (barrier-free) optimistic BFS — the level-free
// complement of the engine family in core/bfs_engine.
//
// Every other engine in the library is level-synchronous: total cost is
// barriers × diameter, which dominates on meshes, road networks, and
// circuit grids. BFS_ASYNC drops the level structure entirely: threads
// pop batches of (depth, vertex) work items from a relaxed d-choice
// multiqueue (core/relaxed_multiqueue.hpp), relax neighbors, and
// publish parent+depth packed into one 64-bit word per vertex. A stale
// read just means a redundant relaxation; because a vertex's depth only
// ever decreases, settling converges to exact BFS levels regardless of
// pop order (monotone-settling argument: DESIGN.md section 10.2).
//
// There are no barriers in steady state. Termination is two-tier:
// an in-region heuristic (per-thread idle flags — plain release stores
// — scanned twice by the designated thread 0 together with queue
// emptiness) raises the done flag, and a quiescent verification window
// (the region's only barriers) re-checks for residual work exactly and
// resumes the region if the heuristic fired early. Re-entry is safe
// because settling is idempotent and monotone — "optimistically
// terminate, verify at the quiescent point, repair by resuming" is the
// paper's recipe applied to the termination problem itself.
//
// RMW exemptions (enumerated in DESIGN.md section 10.4): the pop-claim
// CAS in RelaxedMultiQueue (one per batch) and the settle-min CAS on
// the packed word (one per improvement). Unlike the level-synchronous
// engines — where every racer writes the *same* value, so plain stores
// are convergent — asynchronous racers write *different* depths, and a
// plain-store min suffers the classic lost update (the worse depth can
// land last and stick). The exemplar concurrent_bfs_bit.cc reaches the
// same conclusion.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/bfs_options.hpp"
#include "core/bfs_result.hpp"
#include "core/relaxed_multiqueue.hpp"
#include "core/scratch_arena.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/cache_aligned.hpp"
#include "runtime/rng.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/thread_team.hpp"
#include "telemetry/counters.hpp"
#include "core/bfs_engine.hpp"  // ParallelBFS interface

namespace optibfs {

class AsyncBFS final : public ParallelBFS {
 public:
  AsyncBFS(const CsrGraph& graph, BFSOptions opts, TeamHandle team);

  void run(vid_t source, BFSResult& out) override;
  std::string_view name() const override { return "BFS_ASYNC"; }
  const BFSOptions& options() const override { return opts_; }
  ArenaStats arena_stats() const override { return arena_; }

 private:
  /// Depth that decodes as "not visited this run".
  static constexpr std::uint32_t kInfDepth = 0xFFFFFFFFu;
  /// Fill word: epoch byte 0xFF (never a current epoch — epochs cycle
  /// 0..254) and, in wipe mode, depth 0xFFFFFFFF. One constant serves
  /// both modes.
  static constexpr std::uint64_t kUnvisitedWord = ~std::uint64_t{0};

  struct alignas(kCacheLineSize) Worker {
    int tid = 0;
    std::uint64_t* ctr = nullptr;        ///< counter slab (plain stores)
    Xoshiro256 rng{0};
    std::vector<std::uint64_t> local;    ///< items not yet sealed
    std::vector<std::uint64_t> overflow; ///< sealed blocks the rings refused
    BatchArena arena;                    ///< this producer's batch blocks
    /// Idle flag for the termination scan: owner release-stores 0/1, the
    /// designated thread acquire-loads. Plain MOVs on x86 — inside the
    /// paper's discipline.
    std::atomic<std::uint32_t> idle{0};
    std::uint64_t visited_in_slice = 0;  ///< materialize partials
    level_t max_level_in_slice = 0;
  };

  void worker(int tid);
  void expand_block(Worker& w, const std::uint64_t* block);
  void expand_item(Worker& w, std::uint64_t item);
  void flush_local(Worker& w);
  bool try_terminate();

  // ---- packed-word codec: [epoch:8][depth:24][parent:32], or
  // [depth:32][parent:32] in wipe-per-run mode (n >= 2^24) ----
  std::uint64_t encode(std::uint32_t depth, vid_t parent) const {
    if (wipe_mode_) {
      return (std::uint64_t{depth} << 32) | parent;
    }
    return (std::uint64_t{epoch_} << 56) |
           (std::uint64_t{depth & 0xFFFFFFu} << 32) | parent;
  }
  std::uint32_t effective_depth(std::uint64_t word) const {
    if (wipe_mode_) return static_cast<std::uint32_t>(word >> 32);
    if (static_cast<std::uint32_t>(word >> 56) != epoch_) return kInfDepth;
    return static_cast<std::uint32_t>(word >> 32) & 0xFFFFFFu;
  }
  static vid_t word_parent(std::uint64_t word) {
    return static_cast<vid_t>(word & 0xFFFFFFFFu);
  }

  /// Monotone settle: publishes (depth, parent) iff it improves on the
  /// current effective depth. 0 = lost (no improvement over what raced
  /// in), 1 = fresh discovery, 2 = improvement of an already-settled
  /// vertex (the requeue case).
  int settle_min(vid_t v, std::uint32_t depth, vid_t parent) {
    std::atomic_ref<std::uint64_t> ref(pd_[v]);
    std::uint64_t cur = ref.load(std::memory_order_relaxed);
    const std::uint64_t want = encode(depth, parent);
    for (;;) {
      const std::uint32_t eff = effective_depth(cur);
      if (eff <= depth) return 0;
      if (ref.compare_exchange_weak(cur, want, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
        return eff == kInfDepth ? 1 : 2;
      }
    }
  }

  Worker& state(int tid) {
    return workers_[static_cast<std::size_t>(tid)].value;
  }

  const CsrGraph& graph_;
  const BFSOptions opts_;
  const int p_;
  const std::uint32_t batch_;  ///< items per published block
  const bool wipe_mode_;       ///< n >= 2^24: full depth word, wipe per run
  RelaxedMultiQueue queue_;
  SpinBarrier barrier_;
  std::vector<CacheAligned<Worker>> workers_;
  telemetry::CounterRegistry counters_;

  /// Packed parent+depth words, one per internal vertex. All in-region
  /// access is std::atomic_ref (relaxed loads, the settle CAS); the
  /// post-barrier materialize pass reads it plain.
  std::vector<std::uint64_t> pd_;
  std::uint32_t epoch_ = 0;  ///< cycles 0..254; 0xFF = never-visited fill
  ArenaStats arena_;
  std::uint64_t block_chunks_seen_ = 0;  ///< BatchArena allocation audit

  // ---- termination protocol shared state ----
  std::atomic<bool> done_{false};
  std::atomic<bool> residual_{false};

  BFSResult* out_ = nullptr;  ///< valid during run()

  TeamHandle team_;  ///< declared last: workers must never outlive state
};

}  // namespace optibfs
