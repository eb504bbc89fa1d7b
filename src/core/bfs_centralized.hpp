// Centralized-queue BFS family (paper §IV-A).
//
//  * BFS_C   — one centralized queue pool guarded by a global lock.
//  * BFS_CL  — the same structure made lock-free with optimistic
//              parallelization: the global queue pointer and per-queue
//              fronts are updated with plain (relaxed) stores; races
//              hand out duplicate segments, which the clearing trick
//              turns into cheap early aborts.
//  * BFS_DL  — j independent centralized pools with randomized
//              migration (j=1 degenerates to BFS_CL; j=p is fully
//              distributed). Lock-free.
//  * BFS_EBL — §IV-D future-work variant of BFS_CL whose segments are
//              sized in *edges* rather than vertices.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/bfs_engine.hpp"

namespace optibfs {

/// BFS_C: all p threads fetch ⟨queue, front⟩ segments under one lock.
class CentralizedBFS final : public BFSEngineBase {
 public:
  CentralizedBFS(const CsrGraph& graph, BFSOptions opts, TeamHandle team);

 protected:
  void consume_level(int tid, level_t level) override;
  void on_level_prepared() override;

 private:
  SpinLock global_lock_;
  // All guarded by global_lock_.
  int cur_queue_ = 0;
  std::int64_t cur_front_ = 0;
  std::int64_t remaining_ = 0;
};

/// BFS_CL / BFS_EBL: lock-free centralized fetch per the paper.
class CentralizedLockfreeBFS : public BFSEngineBase {
 public:
  CentralizedLockfreeBFS(const CsrGraph& graph, BFSOptions opts,
                         TeamHandle team, bool edge_balanced = false);

 protected:
  void consume_level(int tid, level_t level) override;
  void on_level_prepared() override;

 private:
  /// Segment length for a queue with `queue_remaining` unread entries:
  /// a function of it and per-level constants only (the partition
  /// condition at BFSEngineBase::segment_size).
  std::int64_t pick_segment(std::int64_t queue_remaining) const;

  const bool edge_balanced_;
  /// Global queue pointer q — relaxed loads/stores only; may move
  /// backwards under races (paper Figure 1), which only causes
  /// duplicate segments.
  std::atomic<std::int32_t> global_queue_{0};
};

/// BFS_DL: j centralized pools, each spanning p/j of the queues.
class DecentralizedLockfreeBFS final : public BFSEngineBase {
 public:
  DecentralizedLockfreeBFS(const CsrGraph& graph, BFSOptions opts,
                           TeamHandle team);

 protected:
  void consume_level(int tid, level_t level) override;
  void on_level_prepared() override;

 private:
  struct Pool {
    std::atomic<std::int32_t> cursor{0};  ///< queue index within pool
    int first_queue = 0;
    int num_queues = 0;
  };

  /// Fetches and drains one segment from `pool`; false if none visible.
  bool drain_one_segment(int tid, int pool, level_t level);

  /// Random pool, socket-local first when the NUMA policy is on.
  int pick_pool(int tid, bool prefer_local);

  int num_pools_ = 1;
  std::vector<CacheAligned<Pool>> pools_;
};

}  // namespace optibfs
