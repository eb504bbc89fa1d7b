// Distributed randomized work-stealing BFS family (paper §IV-B).
//
//  * BFS_W   — lock-protected stealing: a thief try_lock()s its victim
//              and splits the victim's segment exactly in half.
//  * BFS_WL  — lock-free stealing: the thief snapshots the victim's
//              ⟨q, f, r⟩ with plain reads, sanity-checks
//              f' < r' <= Qin[q'].r, and writes the victim's rear with a
//              plain store. Invalid snapshots are rejected; stale or
//              overlapping ones only cause duplicate exploration,
//              bounded by the clearing trick.
//  * BFS_WS / BFS_WSL — the same two engines with the scale-free
//              two-phase hotspot treatment (§IV-B3/4): phase 1 defers
//              vertices above the degree threshold; phase 2 splits each
//              hotspot's adjacency list across all p threads.
//
// One class implements all four: the lock discipline and the hotspot
// phase are orthogonal switches, and the paper's variants differ in
// nothing else.
#pragma once

#include "core/bfs_engine.hpp"

namespace optibfs {

class WorkStealingBFS final : public BFSEngineBase {
 public:
  WorkStealingBFS(const CsrGraph& graph, BFSOptions opts, TeamHandle team,
                  bool use_locks, bool scale_free_mode);

 protected:
  void consume_level(int tid, level_t level) override;
  void on_level_prepared() override;

 private:
  static std::string variant_name(bool use_locks, bool scale_free_mode);

  /// Drains the caller's current segment. Lock-free: stops on a cleared
  /// slot (the paper's owners never test their own rear). Locked: grabs
  /// exact chunks under the owner's own lock.
  void drain_own_segment(int tid, level_t level);

  /// One round of steal attempts (up to MAX_STEAL). On success the
  /// loot is installed in the caller's block. False = quit the level.
  bool steal(int tid);

  bool try_steal_locked(int tid, int victim);
  bool try_steal_lockfree(int tid, int victim);

  const bool use_locks_;
};

}  // namespace optibfs
