#include "core/bfs_centralized.hpp"

#include <algorithm>

namespace optibfs {

using enum telemetry::Counter;
using enum telemetry::EventName;

// ---------------------------------------------------------------------------
// BFS_C
// ---------------------------------------------------------------------------

CentralizedBFS::CentralizedBFS(const CsrGraph& graph, BFSOptions opts,
                               TeamHandle team)
    : BFSEngineBase("BFS_C", graph, std::move(opts), std::move(team)) {}

void CentralizedBFS::on_level_prepared() {
  cur_queue_ = 0;
  cur_front_ = 0;
  remaining_ = queues_.total_in();
}

void CentralizedBFS::consume_level(int tid, level_t level) {
  ThreadState& st = state(tid);
  for (;;) {
    int q = 0;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    {
      // The ⟨q, f⟩ pair advances only under the global lock — this is
      // the contention point the lock-free variant removes.
      global_lock_.lock();
      while (cur_queue_ < p_ && cur_front_ >= queues_.in_rear(cur_queue_)) {
        ++cur_queue_;
        cur_front_ = 0;
      }
      if (cur_queue_ >= p_) {
        global_lock_.unlock();
        return;
      }
      const std::int64_t rear = queues_.in_rear(cur_queue_);
      const std::int64_t len =
          std::min(segment_size(remaining_), rear - cur_front_);
      q = cur_queue_;
      begin = cur_front_;
      end = begin + len;
      cur_front_ = end;
      remaining_ -= len;
      global_lock_.unlock();
    }
    ++st.ctr[kSegmentsClaimed];
    const std::uint64_t seg_t0 = st.trace.now();
    drain_slots(tid, q, begin, end, level, /*stop_at_empty=*/false);
    st.trace.span(kEvSegmentClaim, seg_t0,
                  static_cast<std::uint64_t>(end - begin));
  }
}

// ---------------------------------------------------------------------------
// BFS_CL
// ---------------------------------------------------------------------------

CentralizedLockfreeBFS::CentralizedLockfreeBFS(const CsrGraph& graph,
                                               BFSOptions opts,
                                               TeamHandle team)
    : BFSEngineBase("BFS_CL", graph, std::move(opts), std::move(team)) {}

void CentralizedLockfreeBFS::on_level_prepared() {
  global_queue_.store(0, std::memory_order_relaxed);
}

void CentralizedLockfreeBFS::consume_level(int tid, level_t level) {
  ThreadState& st = state(tid);
  for (;;) {
    // --- optimistic fetch (paper §IV-A2): no lock, no RMW ---
    int k = global_queue_.load(std::memory_order_relaxed);
    if (k < 0) k = 0;  // another thread's racy store cannot make it
                       // negative, but stay defensive
    std::int64_t front = 0;
    std::int64_t rear = 0;
    while (k < p_) {
      front = queues_.in_front(k).load(std::memory_order_relaxed);
      rear = queues_.in_rear(k);
      if (front < rear) break;
      ++k;
    }
    if (k >= p_) return;  // nothing visible anywhere: quit the level

    const std::int64_t len =
        std::min(segment_size(rear - front), rear - front);
    // Plain stores: two threads that raced through the scan may both
    // publish, possibly moving q or f backwards (Figure 1). The result
    // is a duplicate segment, which the clearing trick aborts early.
    global_queue_.store(k, std::memory_order_relaxed);
    queues_.in_front(k).store(front + len, std::memory_order_relaxed);

    ++st.ctr[kSegmentsClaimed];
    const std::uint64_t seg_t0 = st.trace.now();
    drain_slots(tid, k, front, front + len, level, /*stop_at_empty=*/true);
    st.trace.span(kEvSegmentClaim, seg_t0, static_cast<std::uint64_t>(len));
  }
}

// ---------------------------------------------------------------------------
// BFS_DL
// ---------------------------------------------------------------------------

DecentralizedLockfreeBFS::DecentralizedLockfreeBFS(const CsrGraph& graph,
                                                   BFSOptions opts,
                                                   TeamHandle team)
    : BFSEngineBase("BFS_DL", graph, std::move(opts), std::move(team)) {
  num_pools_ = std::clamp(options().dl_pools, 1, p_);
  pools_ = std::vector<CacheAligned<Pool>>(
      static_cast<std::size_t>(num_pools_));
  for (int g = 0; g < num_pools_; ++g) {
    Pool& pool = pools_[static_cast<std::size_t>(g)].value;
    pool.first_queue = g * p_ / num_pools_;
    pool.num_queues = (g + 1) * p_ / num_pools_ - pool.first_queue;
  }
}

void DecentralizedLockfreeBFS::on_level_prepared() {
  for (auto& pool : pools_) {
    pool.value.cursor.store(0, std::memory_order_relaxed);
  }
}

int DecentralizedLockfreeBFS::pick_pool(int tid, bool prefer_local) {
  ThreadState& st = state(tid);
  if (options().numa_aware && prefer_local && num_pools_ > 1) {
    // A pool is "local" when its first queue's owning thread shares the
    // caller's socket (queues are owned thread-i -> queue-i).
    const int my_socket = topology_.socket_of(tid);
    for (int tries = 0; tries < 4; ++tries) {
      const int g = static_cast<int>(
          st.rng.next_below(static_cast<std::uint64_t>(num_pools_)));
      const int owner = pools_[static_cast<std::size_t>(g)]->first_queue;
      if (topology_.socket_of(owner) == my_socket) return g;
    }
  }
  return static_cast<int>(
      st.rng.next_below(static_cast<std::uint64_t>(num_pools_)));
}

bool DecentralizedLockfreeBFS::drain_one_segment(int tid, int pool_id,
                                                 level_t level) {
  Pool& pool = pools_[static_cast<std::size_t>(pool_id)].value;
  int k = pool.cursor.load(std::memory_order_relaxed);
  if (k < 0) k = 0;
  std::int64_t front = 0;
  std::int64_t rear = 0;
  while (k < pool.num_queues) {
    const int queue = pool.first_queue + k;
    front = queues_.in_front(queue).load(std::memory_order_relaxed);
    rear = queues_.in_rear(queue);
    if (front < rear) break;
    ++k;
  }
  if (k >= pool.num_queues) return false;
  const int queue = pool.first_queue + k;
  const std::int64_t len =
      std::min(segment_size(rear - front), rear - front);
  pool.cursor.store(k, std::memory_order_relaxed);
  queues_.in_front(queue).store(front + len, std::memory_order_relaxed);
  ThreadState& st = state(tid);
  ++st.ctr[kSegmentsClaimed];
  const std::uint64_t seg_t0 = st.trace.now();
  drain_slots(tid, queue, front, front + len, level, /*stop_at_empty=*/true);
  st.trace.span(kEvSegmentClaim, seg_t0, static_cast<std::uint64_t>(len));
  return true;
}

void DecentralizedLockfreeBFS::consume_level(int tid, level_t level) {
  // Each thread starts at a random pool (socket-local under the NUMA
  // policy) and migrates when its pool drains; after c·j·log j failed
  // probes (balls-and-bins: enough to have checked every pool w.h.p.)
  // it quits the level.
  int pool = pick_pool(tid, /*prefer_local=*/true);
  const int budget = max_steal_attempts(num_pools_);
  int failures = 0;
  for (;;) {
    while (failures <= budget) {
      if (drain_one_segment(tid, pool, level)) {
        failures = 0;
      } else {
        ++failures;
        pool = pick_pool(tid, /*prefer_local=*/failures * 2 < budget);
      }
    }
    // The paper's c·j·log j random probes find a non-empty pool w.h.p. —
    // but "w.h.p." is not enough for correctness: if every thread got
    // unlucky, a pool's vertices would simply never be consumed. One
    // deterministic sweep before quitting turns the probabilistic bound
    // into a guarantee without changing the common-case behaviour.
    bool found = false;
    for (int g = 0; g < num_pools_; ++g) {
      if (drain_one_segment(tid, g, level)) {
        pool = g;
        found = true;
        break;
      }
    }
    if (!found) return;
    failures = 0;
  }
}

}  // namespace optibfs
