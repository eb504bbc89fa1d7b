// edgemap/vertexmap substrate for the beyond-BFS kernel suite.
//
// This extracts the execution skeleton every optimistic kernel shares
// out of the BFS engines (DESIGN.md §11):
//
//  * a ThreadTeam (owned, or a serving replica's borrowed one) +
//    SpinBarrier pair — level-synchronous
//    super-steps ("rounds") with single-threaded barrier windows for
//    the serial epilogue work (frontier swap, mode choice, chunking);
//  * a dense/sparse switching frontier. Activations are deduplicated
//    with the scratch-arena stamp idiom (a per-vertex 64-bit round
//    stamp compared whole — no O(n) wipe between rounds, exactly the
//    pack_stamp discipline of the engines) and gathered into
//    per-thread lists. Sparse rounds chunk the gathered list by a
//    degree budget; dense rounds materialize a byte bitmap from the
//    list (O(active), not O(n)) and word-scan it 8 flags at a time,
//    reusing the engines' word-scan trick;
//  * degree-balanced static owned slices for owner-computes passes
//    (recounts, verifies, reductions) — the repair half of the
//    optimistic discipline always runs owner-computes at a quiescent
//    window, so its writes are exact and race-free;
//  * per-thread cache-line-padded counter slabs (telemetry/counters).
//
// Discipline: NO locks and NO atomic RMW anywhere in this substrate.
// The only intentional races are relaxed stamp/flag publications, and
// every cross-thread handoff is separated by a barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "core/scratch_arena.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/mem_topology.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/thread_team.hpp"
#include "telemetry/counters.hpp"

namespace optibfs::kernels {

/// Relaxed load/store through std::atomic_ref — the library's spelling
/// for an intentional benign race (plain MOVs on x86, TSan-visible as
/// atomic). Everything a kernel reads or writes concurrently with
/// another thread goes through these two.
template <class T>
inline T rlx_load(const T& x) {
  return std::atomic_ref<const T>(x).load(std::memory_order_relaxed);
}
template <class T>
inline void rlx_store(T& x, T v) {
  std::atomic_ref<T>(x).store(v, std::memory_order_relaxed);
}

class KernelSubstrate {
 public:
  /// `undirected_view` makes neighbor iteration and degrees cover the
  /// superposed out+in multigraph (builds the transpose once, at
  /// construction — off the hot path). CC/k-core/MIS want this;
  /// delta-PageRank pushes along out-edges only. p is the width of
  /// `team` (owned or borrowed; see make_kernel).
  KernelSubstrate(const CsrGraph& g, const BFSOptions& opts,
                  bool undirected_view, TeamHandle team);

  const CsrGraph& graph() const { return *g_; }
  vid_t n() const { return n_; }
  int num_threads() const { return p_; }
  bool undirected() const { return tr_ != nullptr; }

  /// Combined degree under the active view (out + in if undirected).
  vid_t degree(vid_t v) const { return degree_[v]; }

  /// The per-thread flight-recorder slab (plain `++ctr[kFoo]`).
  std::uint64_t* ctr(int tid) { return counters_.slab(tid); }

  /// Aggregate of all slabs — call only from outside parallel() or a
  /// serial barrier window (quiescent points).
  telemetry::CounterSnapshot counters() const { return counters_.aggregate(); }

  /// Zeroes every slab — call between runs, outside parallel().
  void reset_counters() { counters_.reset(); }

  /// Runs body(tid) on the team; blocks until all return.
  void parallel(const std::function<void(int)>& body) { team_.run(body); }

  /// Barrier; returns true for exactly one thread (the serial window).
  bool barrier(int tid) {
    return barrier_.arrive_and_wait(&ctr(tid)[telemetry::kBarrierSpins]);
  }

  /// Degree-balanced owned vertex slice for owner-computes passes.
  std::pair<vid_t, vid_t> owned(int tid) const {
    return {owned_[static_cast<std::size_t>(tid)],
            owned_[static_cast<std::size_t>(tid) + 1]};
  }

  // ---- frontier ----

  /// Seed every vertex active for round 0. Call before parallel().
  void seed_all();

  /// Seed one vertex active for round 0. Call before parallel().
  void seed(vid_t v);

  /// Mark v active for the NEXT round. Safe from any thread; duplicate
  /// activations are deduplicated optimistically with a relaxed round
  /// stamp — the race window between load and store can let a vertex
  /// into two threads' lists, which sparse processing then visits
  /// twice (benign for monotone kernels; counted).
  void activate(int tid, vid_t v) {
    const stamp_t want = next_stamp_;
    std::uint64_t* c = ctr(tid);
    if (rlx_load(stamp_[v]) == want) {
      ++c[telemetry::kKernelDupActivations];
      return;
    }
    rlx_store(stamp_[v], want);
    act_[static_cast<std::size_t>(tid)].list.push_back(v);
    ++c[telemetry::kKernelActivations];
  }

  /// Ends the round: barrier, serial window (gather + swap + dense/
  /// sparse choice + chunking), barrier. Returns the number of active
  /// entries in the new round (0 = converged / round cap hit; every
  /// thread sees the same value). Call from all threads.
  std::uint64_t advance(int tid) {
    if (barrier(tid)) advance_serial(tid);
    barrier(tid);
    return frontier_entries_;
  }

  /// Visits this thread's share of the current round's active set.
  /// Dense rounds word-scan the owned slice; sparse rounds walk a
  /// degree-balanced chunk of the gathered list (entries may repeat —
  /// see activate()).
  template <class F>
  void for_active(int tid, F&& f) {
    if (all_active_) {
      const auto [b, e] = owned(tid);
      for (vid_t v = b; v < e; ++v) f(v);
      return;
    }
    if (dense_) {
      const auto [b, e] = owned(tid);
      const unsigned char* flags = flags_.data();
      vid_t v = b;
      while (v < e) {
        if ((v & 7u) == 0 && v + 8 <= e) {
          // Quiescent between barriers: plain 8-wide load is race-free.
          std::uint64_t word;
          std::memcpy(&word, flags + v, sizeof word);
          if (word == 0) {
            v += 8;
            continue;
          }
        }
        if (flags[v]) f(v);
        ++v;
      }
      return;
    }
    const std::size_t b = chunk_[static_cast<std::size_t>(tid)];
    const std::size_t e = chunk_[static_cast<std::size_t>(tid) + 1];
    for (std::size_t i = b; i < e; ++i) f(frontier_[i]);
  }

  /// Visits every vertex in the owned slice (vertexmap over all of V).
  template <class F>
  void for_owned(int tid, F&& f) {
    const auto [b, e] = owned(tid);
    for (vid_t v = b; v < e; ++v) f(v);
  }

  /// Visits v's neighbors under the active view (out-edges, then
  /// in-edges when undirected). Multi-edges and self-loops appear as
  /// often as they occur — kernels define their semantics over the
  /// multigraph so the serial references can match exactly.
  template <class F>
  void for_neighbors(vid_t v, F&& f) const {
    for (vid_t w : g_->out_neighbors(v)) f(w);
    if (tr_ != nullptr)
      for (vid_t w : tr_->out_neighbors(v)) f(w);
  }

  /// for_neighbors with the engines' software-prefetch lookahead
  /// (DESIGN.md §3.1a, extended to kernels in §13): while visiting
  /// nbrs[i], issue `__builtin_prefetch(&data[nbrs[i + dist]])` so the
  /// random per-neighbor array probe (CC labels, MIS states, PageRank
  /// residuals) is in flight before f touches it. `data` is whatever
  /// per-vertex array the kernel reads for each neighbor. dist == 0
  /// degrades to plain iteration.
  template <class T, class F>
  void for_neighbors_prefetch(vid_t v, const T* data, F&& f) const {
    visit_prefetch(g_->out_neighbors(v), data, f);
    if (tr_ != nullptr) visit_prefetch(tr_->out_neighbors(v), data, f);
  }

  /// Effective prefetch lookahead (BFSOptions::prefetch_distance).
  int prefetch_distance() const { return prefetch_dist_; }

  /// Raw neighbor spans, for kernels that need early-exit scans.
  std::span<const vid_t> out_nbrs(vid_t v) const {
    return g_->out_neighbors(v);
  }
  std::span<const vid_t> in_nbrs(vid_t v) const {
    return tr_ != nullptr ? tr_->out_neighbors(v)
                          : std::span<const vid_t>{};
  }

  /// Round index of the round currently executing (0-based; repair
  /// passes between rounds count too since they advance()).
  int round() const { return round_; }

  /// Barrier-window reduction: every thread contributes `value`, all
  /// threads observe the sum. Plain stores into padded per-thread
  /// slots, summed in the serial window — the flight-recorder
  /// aggregation pattern, reused as a convergence vote. Two barriers.
  std::uint64_t reduce_sum(int tid, std::uint64_t value) {
    vote_[static_cast<std::size_t>(tid)].v = value;
    if (barrier(tid)) {
      std::uint64_t sum = 0;
      for (const Vote& s : vote_) sum += s.v;
      vote_sum_ = sum;
    }
    barrier(tid);
    return vote_sum_;
  }

 private:
  void advance_serial(int tid);

  template <class T, class F>
  void visit_prefetch(std::span<const vid_t> nbrs, const T* data,
                      F& f) const {
    const std::size_t d = static_cast<std::size_t>(prefetch_dist_);
    const std::size_t sz = nbrs.size();
    for (std::size_t i = 0; i < sz; ++i) {
      if (d != 0 && i + d < sz) __builtin_prefetch(&data[nbrs[i + d]], 0, 3);
      f(nbrs[i]);
    }
  }

  /// Storage-tier prefetch (DESIGN.md §12): before workers leave the
  /// serial barrier window into a dense round, hand each degree-aware
  /// owned slice's adjacency interval one WILLNEED hint, so the mmap
  /// backend faults the round's edge bytes in ahead of the scan (and
  /// charges them against the residency budget). Hints go through the
  /// async advisor (DESIGN.md §13): the serial window only enqueues,
  /// and the kernel pages the next round's slices in while this
  /// round's compute is still running. No-op on heap.
  void advise_dense_round();

  // Frontier entries below n_/kDenseDivisor stay sparse.
  static constexpr vid_t kDenseDivisor = 16;

  const CsrGraph* g_ = nullptr;
  const CsrGraph* tr_ = nullptr;  // transpose when undirected view
  vid_t n_ = 0;
  int p_ = 1;
  int max_rounds_ = 0;
  int round_ = 0;

  std::vector<vid_t> degree_;  // combined degree under the view
  std::vector<vid_t> owned_;   // p_+1 degree-balanced slice bounds

  // Activation stamps: stamp_[v] == next_stamp_ means "already queued
  // for the next round". Bumping next_stamp_ retires every stamp at
  // once — the scratch-arena idiom, no wipes. Placed (DESIGN.md §13):
  // raw unfaulted allocation, zeroed by the team over owned slices in
  // the ctor so each thread's pages fault on its own socket.
  mem::PlacedBuffer<stamp_t> stamp_;
  stamp_t next_stamp_ = 1;

  struct alignas(64) ActList {
    std::vector<vid_t> list;
  };
  struct alignas(64) Vote {
    std::uint64_t v = 0;
  };
  std::vector<Vote> vote_;  // reduce_sum scratch
  std::uint64_t vote_sum_ = 0;
  std::vector<ActList> act_;      // per-thread next-round activations
  std::vector<vid_t> frontier_;   // gathered current round (may repeat)
  std::vector<std::size_t> chunk_;  // p_+1 sparse chunk bounds
  std::vector<unsigned char> flags_;  // dense-round bitmap (list-cleared)
  bool all_active_ = false;
  bool dense_ = false;
  bool flags_set_ = false;  // flags_ currently holds frontier_'s bits
  bool mmap_backed_ = false;  // cached at ctor: storage kind never changes
  int prefetch_dist_ = 0;     // BFSOptions::prefetch_distance
  std::uint64_t frontier_entries_ = 0;

  telemetry::CounterRegistry counters_;
  SpinBarrier barrier_;
  TeamHandle team_;  // declared last: workers must die first
};

}  // namespace optibfs::kernels
