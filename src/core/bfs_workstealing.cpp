#include "core/bfs_workstealing.hpp"

#include <algorithm>
#include <string>

namespace optibfs {

using enum telemetry::Counter;
using enum telemetry::EventName;

std::string WorkStealingBFS::variant_name(bool use_locks,
                                          bool scale_free_mode) {
  if (scale_free_mode) return use_locks ? "BFS_WS" : "BFS_WSL";
  return use_locks ? "BFS_W" : "BFS_WL";
}

WorkStealingBFS::WorkStealingBFS(const CsrGraph& graph, BFSOptions opts,
                                 TeamHandle team, bool use_locks,
                                 bool scale_free_mode)
    : BFSEngineBase(variant_name(use_locks, scale_free_mode), graph,
                    std::move(opts), std::move(team)),
      use_locks_(use_locks) {
  if (scale_free_mode) enable_scale_free();
}

void WorkStealingBFS::on_level_prepared() {
  // "Initially, thread t gets the entire Qin[t] as a single segment"
  // (§IV-B2) — the assignment happens at level start, not when t first
  // gets scheduled. Initializing the blocks here, in the single-threaded
  // barrier window, makes a not-yet-running thread's queue stealable,
  // which matters whenever threads are oversubscribed on fewer cores.
  for (int t = 0; t < p_; ++t) {
    ThreadState& st = state(t);
    const std::int64_t rear = queues_.in_rear(t);
    st.seg_queue.store(t, std::memory_order_relaxed);
    st.seg_front.store(0, std::memory_order_relaxed);
    st.seg_rear.store(rear, std::memory_order_relaxed);
    st.has_work.store(rear > 0, std::memory_order_relaxed);
  }
}

void WorkStealingBFS::consume_level(int tid, level_t level) {
  ThreadState& st = state(tid);
  for (;;) {
    drain_own_segment(tid, level);
    // One steal round = up to MAX_STEAL victim probes; the span's arg
    // records whether it landed work (failed final rounds make the
    // level's termination-detection cost visible in the trace).
    const std::uint64_t steal_t0 = st.trace.now();
    const bool stole = steal(tid);
    st.trace.span(kEvStealRound, steal_t0, stole ? 1 : 0);
    if (!stole) break;
  }

  if (scale_free()) explore_hotspots(tid, level);
}

void WorkStealingBFS::drain_own_segment(int tid, level_t level) {
  ThreadState& st = state(tid);
  if (use_locks_) {
    // Locked discipline: claim exact chunks under the owner's own lock;
    // thieves truncate seg_rear under the same lock, so no slot is ever
    // consumed twice from this queue.
    for (;;) {
      st.lock.lock();
      const std::int64_t f = st.seg_front.load(std::memory_order_relaxed);
      const std::int64_t r = st.seg_rear.load(std::memory_order_relaxed);
      if (f >= r) {
        st.has_work.store(false, std::memory_order_relaxed);
        st.lock.unlock();
        return;
      }
      const std::int64_t len = std::min(segment_size(r - f), r - f);
      st.seg_front.store(f + len, std::memory_order_relaxed);
      const int q = st.seg_queue.load(std::memory_order_relaxed);
      st.lock.unlock();
      ++st.ctr[kSegmentsClaimed];
      drain_slots(tid, q, f, f + len, level, /*stop_at_empty=*/false);
    }
  }

  // Lock-free discipline (paper): walk forward, consuming slot by slot,
  // publishing progress through seg_front. The owner does not test its
  // own rear — a cleared slot is the only stop signal, so a thief's
  // racy rear write can never strand work (§IV-B2). The one exception
  // is the clear_slots=false ablation, where the rear bound substitutes
  // for the missing sentinel.
  const int q = st.seg_queue.load(std::memory_order_relaxed);
  const std::int64_t bound =
      options().clear_slots ? queues_.capacity()
                            : st.seg_rear.load(std::memory_order_relaxed);
  std::int64_t i = st.seg_front.load(std::memory_order_relaxed);
  Tally tally;
  while (i < bound) {
    if (!process_slot(tid, q, i, level, tally)) break;
    ++i;
    st.seg_front.store(i, std::memory_order_relaxed);
  }
  tally.add_to(st.ctr);
  st.has_work.store(false, std::memory_order_relaxed);
}

bool WorkStealingBFS::steal(int tid) {
  ThreadState& st = state(tid);
  if (p_ <= 1) return false;
  const int budget = max_steal_attempts(p_);
  for (int attempt = 0; attempt < budget; ++attempt) {
    const int victim = pick_victim(tid, attempt * 2 < budget);
    if (victim == tid) {
      ++st.ctr[kStealFailVictimIdle];
      continue;
    }
    const bool ok = use_locks_ ? try_steal_locked(tid, victim)
                               : try_steal_lockfree(tid, victim);
    if (ok) return true;
  }
  return false;  // MAX_STEAL failures: quit this level
}

bool WorkStealingBFS::try_steal_locked(int tid, int victim) {
  ThreadState& st = state(tid);
  ThreadState& vs = state(victim);
  if (!vs.lock.try_lock()) {
    ++st.ctr[kStealFailVictimLocked];
    return false;
  }
  const std::int64_t f = vs.seg_front.load(std::memory_order_relaxed);
  const std::int64_t r = vs.seg_rear.load(std::memory_order_relaxed);
  const bool has_work = vs.has_work.load(std::memory_order_relaxed);
  if (!has_work || f >= r) {
    vs.lock.unlock();
    ++st.ctr[kStealFailVictimIdle];
    return false;
  }
  if (r - f < 2) {
    vs.lock.unlock();
    ++st.ctr[kStealFailSegmentTooSmall];
    return false;
  }
  const std::int64_t mid = f + (r - f) / 2;
  const int q = vs.seg_queue.load(std::memory_order_relaxed);
  vs.seg_rear.store(mid, std::memory_order_relaxed);
  vs.lock.unlock();
  // The stolen range [mid, r) now belongs to nobody else; install it.
  st.lock.lock();
  st.seg_queue.store(q, std::memory_order_relaxed);
  st.seg_front.store(mid, std::memory_order_relaxed);
  st.seg_rear.store(r, std::memory_order_relaxed);
  st.has_work.store(true, std::memory_order_relaxed);
  st.lock.unlock();
  ++st.ctr[kStealSuccess];
  return true;
}

bool WorkStealingBFS::try_steal_lockfree(int tid, int victim) {
  ThreadState& st = state(tid);
  ThreadState& vs = state(victim);
  // Snapshot the victim's block with plain reads. The three reads are
  // not mutually consistent — that is the point; the sanity check below
  // rejects combinations that could dereference out of range.
  const int q = vs.seg_queue.load(std::memory_order_relaxed);
  const std::int64_t f = vs.seg_front.load(std::memory_order_relaxed);
  const std::int64_t r = vs.seg_rear.load(std::memory_order_relaxed);
  if (!vs.has_work.load(std::memory_order_relaxed)) {
    ++st.ctr[kStealFailVictimIdle];
    return false;
  }
  // Paper's sanity check: f' < r' <= Qin[q'].r (plus q' in range, which
  // the paper gets implicitly from its array layout).
  if (q < 0 || q >= p_ || f < 0 || !(f < r && r <= queues_.in_rear(q))) {
    ++st.ctr[kStealFailInvalidSegment];
    return false;
  }
  if (r - f < 2) {
    ++st.ctr[kStealFailSegmentTooSmall];
    return false;
  }
  const std::int64_t mid = f + (r - f) / 2;
  // A segment can pass every check and still be finished: the victim
  // may have raced ahead (its front is stale in our snapshot). Peeking
  // the first stolen slot detects that cheaply.
  if (queues_.peek_in(q, mid) == kInvalidVertex) {
    ++st.ctr[kStealFailStaleSegment];
    return false;
  }
  // Plain store into the victim's rear. If our snapshot was torn this
  // may truncate to a bogus position; the victim never reads its own
  // rear (it stops on cleared slots), so the worst case is that the
  // victim looks unattractive to later thieves for a while (§IV-B2).
  vs.seg_rear.store(mid, std::memory_order_relaxed);
  st.seg_queue.store(q, std::memory_order_relaxed);
  st.seg_front.store(mid, std::memory_order_relaxed);
  st.seg_rear.store(r, std::memory_order_relaxed);
  st.has_work.store(true, std::memory_order_relaxed);
  ++st.ctr[kStealSuccess];
  return true;
}

}  // namespace optibfs
