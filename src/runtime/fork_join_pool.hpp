// Cilk-style fork-join work-stealing scheduler.
//
// Substrate for the Baseline1 reproduction: Leiserson-Schardl PBFS is
// written against a randomized work-stealing runtime (cilk++). This pool
// supplies the pieces PBFS needs — nested fork-join via TaskGroup,
// recursive parallel_for, per-worker ids for reducer views — on
// persistent worker threads with Chase-Lev deques (child stealing).
//
// Scheduling model: spawned tasks go to the spawning worker's own deque
// (LIFO for locality); idle workers steal from random victims (FIFO end).
// A TaskGroup::wait() *helps*: the waiter executes available tasks
// instead of blocking, which is what makes nested fork-join deadlock-free
// on a bounded worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/cache_aligned.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/rng.hpp"
#include "telemetry/counters.hpp"

namespace optibfs {

class ForkJoinPool {
 public:
  explicit ForkJoinPool(int num_workers);
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Id of the calling worker in [0, num_workers), or -1 when called
  /// from a thread that does not belong to this pool.
  int current_worker_id() const;

  /// Executes root() on a pool worker; blocks the caller until root and
  /// everything it forked (via TaskGroups it waited on) completes.
  void run(std::function<void()> root);

  /// Fork-join scope. Create inside a task (or run() root), spawn with
  /// run(), and join with wait(). Must be waited before destruction.
  class TaskGroup {
   public:
    explicit TaskGroup(ForkJoinPool& pool) : pool_(pool) {}
    ~TaskGroup() { wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Spawns fn to run asynchronously. The caller must keep everything
    /// fn references alive until wait() returns (guaranteed when captures
    /// outlive the group, the normal fork-join pattern).
    void run(std::function<void()> fn);

    /// Blocks until every task spawned through this group has finished,
    /// executing other available tasks while waiting.
    void wait();

   private:
    ForkJoinPool& pool_;
    std::atomic<std::int64_t> pending_{0};
  };

  /// Recursive divide-and-conquer parallel loop over [begin, end).
  /// fn(chunk_begin, chunk_end) receives half-open subranges of at most
  /// `grain` elements. Callable from inside or outside the pool.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Flight-recorder view of the scheduler: tasks executed per worker.
  /// Unlike the BFS engines, the pool has no quiescent aggregation point
  /// (workers are always live), so its counters use relaxed atomic
  /// bumps — the pool is infrastructure, outside the paper's no-RMW
  /// traversal discipline.
  telemetry::CounterSnapshot telemetry_counters() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::atomic<std::int64_t>* pending;  // group counter to decrement
  };

  struct Worker {
    Worker() = default;  // non-aggregate so CacheAligned's {} works
    ChaseLevDeque<Task*> deque;
    Xoshiro256 rng{0};
  };

  void worker_loop(int id);
  /// One attempt to find and execute a task. Returns true if one ran.
  bool try_run_one(int worker_id);
  void execute(int worker_id, Task* task);
  void spawn_task(Task* task);
  void wake_if_idle();

  void parallel_for_impl(std::int64_t begin, std::int64_t end,
                         std::int64_t grain,
                         const std::function<void(std::int64_t,
                                                  std::int64_t)>& fn);

  const int num_workers_;
  std::vector<CacheAligned<Worker>> workers_;
  std::vector<std::thread> threads_;

  // External submissions (run() roots) land here; workers drain it.
  std::mutex inject_mutex_;
  std::deque<Task*> inject_queue_;
  std::atomic<std::int64_t> inject_size_{0};

  std::atomic<bool> shutting_down_{false};
  std::atomic<int> num_idle_{0};
  std::atomic<std::uint64_t> wake_epoch_{0};

  telemetry::CounterRegistry counters_;  // relaxed-bump, see telemetry_counters()
};

}  // namespace optibfs
