// The paper's Qin[p] / Qout[p] frontier queue pool.
//
// Each of the p queues is a plain random-access array of vertex slots.
// A slot holds v+1 for vertex v; the value 0 means "empty": either the
// slot was never written this level (the sentinel region past the rear)
// or a reader already consumed it (the clearing trick). Overloading one
// value for both cases is what makes the paper's argument work: a thread
// that hits a 0 can stop unconditionally, because a 0 can only mean
// "past the end" or "someone else is/was here" — never a gap.
//
// Concurrency contract:
//  * out-side: queue i is written only by thread i (private), with
//    relaxed stores; the level barrier publishes them.
//  * swap_and_prepare() runs on exactly one thread between barriers.
//  * in-side: slots are read and cleared by any thread with relaxed
//    loads/stores — racy by design; per-queue `front` is likewise
//    updated with relaxed stores only (no RMW). `rear` is written once
//    at swap time and is stable during a level (the WL sanity check
//    "r' <= Qin[q'].r" relies on that).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"
#include "runtime/cache_aligned.hpp"
#include "runtime/mem_topology.hpp"

namespace optibfs {

class FrontierQueues {
 public:
  /// p queues per side, each with capacity for `max_vertices` entries
  /// plus the trailing sentinel. A vertex can appear at most once per
  /// queue (each thread checks level[] before pushing), so max_vertices
  /// = n always suffices.
  ///
  /// With `defer_init` the slot slabs are allocated but left unfaulted:
  /// the owning engine must call init_queue(q) for every queue (from
  /// the worker that owns queue q, inside its first parallel region)
  /// before any push/consume — that first-touch zeroing is what places
  /// each thread's queue segment on its own socket. Without it the
  /// constructor zeroes everything itself (previous behavior).
  /// `huge_pages` requests MADV_HUGEPAGE backing for the slabs.
  FrontierQueues(int num_queues, vid_t max_vertices,
                 bool defer_init = false, bool huge_pages = false);

  /// Zeroes queue q's slots on both sides (the deferred part of
  /// construction). Call from the thread that owns queue q.
  void init_queue(int q);

  /// Huge-page advises accepted for the two slot slabs (0, 1, or 2) —
  /// folded into the engine's placement telemetry.
  int huge_advises() const {
    return (a_.huge_advised() ? 1 : 0) + (b_.huge_advised() ? 1 : 0);
  }

  /// Bytes a full init_queue sweep touches (both sides) — the engine's
  /// first_touch_bytes telemetry contribution.
  std::uint64_t slab_bytes() const {
    return static_cast<std::uint64_t>(2 * num_queues_) *
           static_cast<std::uint64_t>(capacity_) * sizeof(std::atomic<vid_t>);
  }

  int num_queues() const { return num_queues_; }
  std::int64_t capacity() const { return capacity_; }

  // ---- out side (thread tid only) ----

  /// Appends v to out-queue `tid`. Never overflows by the 1-per-queue
  /// argument above; bounds are asserted in debug builds.
  void push_out(int tid, vid_t v, vid_t degree) {
    OutCount& count = out_count_[static_cast<std::size_t>(tid)].value;
    assert(count.entries + 1 < capacity_ && "out queue overflow");
    out_[static_cast<std::size_t>(tid) * static_cast<std::size_t>(capacity_) +
         static_cast<std::size_t>(count.entries)]
        .store(v + 1, std::memory_order_relaxed);
    ++count.entries;
    count.edges += degree;
  }

  /// Entries pushed to out-queue `tid` this level.
  std::int64_t out_count(int tid) const {
    return out_count_[static_cast<std::size_t>(tid)]->entries;
  }

  // ---- level transition (single-threaded between barriers) ----

  /// Makes the out side the new in side: publishes rears from the out
  /// counts, resets fronts to 0, clears out counts. The old in side
  /// becomes the new out side; its slots are all 0 again because every
  /// consumed slot was cleared by its reader.
  void swap_and_prepare();

  /// Seeds the in side with a single vertex in queue 0 (run start).
  void seed(vid_t source, vid_t degree);

  /// Zeroes every slot and counter on both sides. Only needed when the
  /// clearing trick is disabled (ablation mode): with clearing on, a
  /// finished run leaves all slots 0 by construction and reuse is free.
  void hard_reset();

  /// Total entries across all in-queues (valid right after
  /// swap_and_prepare, i.e. at level start).
  std::int64_t total_in() const { return total_in_; }

  /// Total out-degree of all entries in the in side (for edge-balanced
  /// segment sizing).
  std::int64_t total_in_edges() const { return total_in_edges_; }

  // ---- in side (any thread; racy by design) ----

  /// Reads slot `index` of in-queue q. Returns kInvalidVertex when the
  /// slot is empty/consumed/past-rear. When `clear` is set the slot is
  /// zeroed after the read (two independent relaxed accesses — the
  /// read-then-clear race is the algorithm's accepted source of
  /// duplicate exploration). `index` outside [0, capacity) is reported
  /// empty rather than touching memory: this is the "invalid segment"
  /// safety net.
  vid_t consume_in(int q, std::int64_t index, bool clear) {
    if (index < 0 || index >= capacity_) return kInvalidVertex;
    std::atomic<vid_t>& slot =
        in_[static_cast<std::size_t>(q) * static_cast<std::size_t>(capacity_) +
            static_cast<std::size_t>(index)];
    const vid_t raw = slot.load(std::memory_order_relaxed);
    if (raw == 0) return kInvalidVertex;
    if (clear) slot.store(0, std::memory_order_relaxed);
    return raw - 1;
  }

  /// Peeks without clearing (lock-based variants, which cannot race).
  vid_t peek_in(int q, std::int64_t index) const {
    if (index < 0 || index >= capacity_) return kInvalidVertex;
    const vid_t raw =
        in_[static_cast<std::size_t>(q) * static_cast<std::size_t>(capacity_) +
            static_cast<std::size_t>(index)]
            .load(std::memory_order_relaxed);
    return raw == 0 ? kInvalidVertex : raw - 1;
  }

  /// Retires in-queue q without exploring it: counts the live (non-zero)
  /// slots in [0, rear) and, when `clear` is set, zeroes them so the
  /// next swap hands the side back with the all-slots-0 invariant
  /// intact. Used by bottom-up levels, which read the frontier from the
  /// level[] array instead of the queues but must still consume the
  /// queue entries. Single consumer per queue (the owner thread), so
  /// plain relaxed loads/stores suffice. Returns the live-entry count —
  /// the per-pop vertices_explored analog for a bottom-up level.
  std::int64_t retire_in(int q, bool clear);

  /// In-queue q's rear (entry count). Stable during a level.
  std::int64_t in_rear(int q) const {
    return in_rear_[static_cast<std::size_t>(q)].value.load(
        std::memory_order_relaxed);
  }

  /// In-queue q's shared front pointer (centralized variants). Relaxed
  /// access only; races move it backwards/forwards benignly.
  std::atomic<std::int64_t>& in_front(int q) {
    return in_front_[static_cast<std::size_t>(q)].value;
  }

 private:
  const int num_queues_;
  const std::int64_t capacity_;  // slots per queue incl. sentinel

  // Two flat slot slabs; `in_` / `out_` point at them and swap.
  // PlacedBuffers so a deferred init can first-touch per owner thread;
  // slots are plain lock-free atomics zeroed bytewise before first use
  // (memset-then-atomic-ops on trivially-laid-out atomics — same
  // pragmatism as the clearing trick itself).
  mem::PlacedBuffer<std::atomic<vid_t>> a_;
  mem::PlacedBuffer<std::atomic<vid_t>> b_;
  std::atomic<vid_t>* in_ = nullptr;
  std::atomic<vid_t>* out_ = nullptr;

  struct OutCount {
    std::int64_t entries = 0;
    std::int64_t edges = 0;
  };
  std::vector<CacheAligned<OutCount>> out_count_;
  std::vector<CacheAligned<std::atomic<std::int64_t>>> in_rear_;
  std::vector<CacheAligned<std::atomic<std::int64_t>>> in_front_;
  std::int64_t total_in_ = 0;
  std::int64_t total_in_edges_ = 0;
};

}  // namespace optibfs
