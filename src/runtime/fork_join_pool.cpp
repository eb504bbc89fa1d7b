#include "runtime/fork_join_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace optibfs {
namespace {

// Which pool (if any) the current thread works for, and as which id.
thread_local const ForkJoinPool* tls_pool = nullptr;
thread_local int tls_worker_id = -1;

}  // namespace

ForkJoinPool::ForkJoinPool(int num_workers)
    : num_workers_(num_workers), counters_(std::max(1, num_workers)) {
  if (num_workers < 1) {
    throw std::invalid_argument("ForkJoinPool: need at least one worker");
  }
  workers_ = std::vector<CacheAligned<Worker>>(
      static_cast<std::size_t>(num_workers_));
  for (int id = 0; id < num_workers_; ++id) {
    workers_[static_cast<std::size_t>(id)]->rng =
        Xoshiro256(0x9E3779B9ULL + static_cast<std::uint64_t>(id));
  }
  threads_.reserve(static_cast<std::size_t>(num_workers_));
  for (int id = 0; id < num_workers_; ++id) {
    threads_.emplace_back([this, id] { worker_loop(id); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  shutting_down_.store(true, std::memory_order_release);
  wake_epoch_.fetch_add(1, std::memory_order_acq_rel);
  wake_epoch_.notify_all();
  for (auto& t : threads_) t.join();
  // Any tasks left in deques would leak; by contract run() callers have
  // all returned before destruction, so the deques are empty here.
}

int ForkJoinPool::current_worker_id() const {
  return tls_pool == this ? tls_worker_id : -1;
}

void ForkJoinPool::run(std::function<void()> root) {
  std::atomic<std::int64_t> pending{1};
  auto* task = new Task{std::move(root), &pending};
  {
    std::lock_guard lock(inject_mutex_);
    inject_queue_.push_back(task);
  }
  inject_size_.fetch_add(1, std::memory_order_release);
  wake_if_idle();
  // The caller is external: it cannot help (it has no deque), so it
  // blocks on the group counter via futex.
  std::int64_t observed = pending.load(std::memory_order_acquire);
  while (observed != 0) {
    pending.wait(observed, std::memory_order_acquire);
    observed = pending.load(std::memory_order_acquire);
  }
}

void ForkJoinPool::TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  pool_.spawn_task(new Task{std::move(fn), &pending_});
}

void ForkJoinPool::TaskGroup::wait() {
  int spins = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    const int id = pool_.current_worker_id();
    if (id >= 0 && pool_.try_run_one(id)) {
      spins = 0;
      continue;
    }
    // Nothing runnable: the outstanding tasks are executing on other
    // workers. Yield rather than futex-wait — the final decrement comes
    // soon and notify-per-task-completion would be costlier than this.
    if (++spins >= 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

void ForkJoinPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (current_worker_id() >= 0) {
    parallel_for_impl(begin, end, grain, fn);
  } else {
    run([&] { parallel_for_impl(begin, end, grain, fn); });
  }
}

void ForkJoinPool::parallel_for_impl(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end - begin <= grain) {
    fn(begin, end);
    return;
  }
  const std::int64_t mid = begin + (end - begin) / 2;
  TaskGroup group(*this);
  group.run([this, begin, mid, grain, &fn] {
    parallel_for_impl(begin, mid, grain, fn);
  });
  parallel_for_impl(mid, end, grain, fn);
  group.wait();
}

void ForkJoinPool::spawn_task(Task* task) {
  const int id = current_worker_id();
  if (id >= 0) {
    workers_[static_cast<std::size_t>(id)]->deque.push(task);
  } else {
    std::lock_guard lock(inject_mutex_);
    inject_queue_.push_back(task);
    inject_size_.fetch_add(1, std::memory_order_release);
  }
  wake_if_idle();
}

telemetry::CounterSnapshot ForkJoinPool::telemetry_counters() const {
  return counters_.aggregate();
}

void ForkJoinPool::execute(int worker_id, Task* task) {
  counters_.bump_relaxed(worker_id, telemetry::kPoolTasksExecuted);
  task->fn();
  std::atomic<std::int64_t>* pending = task->pending;
  delete task;
  if (pending->fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Possible external waiter blocked in run().
    pending->notify_all();
  }
}

bool ForkJoinPool::try_run_one(int worker_id) {
  Worker& self = *workers_[static_cast<std::size_t>(worker_id)];
  if (auto task = self.deque.pop()) {
    execute(worker_id, *task);
    return true;
  }
  // Random victims first (the Cilk discipline), then one deterministic
  // sweep. steal() reports a CAS lost to another thief as empty, so
  // under contention this can still answer "no work" while a task sits
  // in a deque (see wake_if_idle for why that only idles a worker).
  for (int attempt = 0; attempt < 2 * num_workers_; ++attempt) {
    const auto victim = static_cast<std::size_t>(
        self.rng.next_below(static_cast<std::uint64_t>(num_workers_)));
    if (static_cast<int>(victim) == worker_id) continue;
    if (auto task = workers_[victim]->deque.steal()) {
      execute(worker_id, *task);
      return true;
    }
  }
  for (int victim = 0; victim < num_workers_; ++victim) {
    if (victim == worker_id) continue;
    if (auto task = workers_[static_cast<std::size_t>(victim)]->deque.steal()) {
      execute(worker_id, *task);
      return true;
    }
  }
  if (inject_size_.load(std::memory_order_acquire) > 0) {
    Task* task = nullptr;
    {
      std::lock_guard lock(inject_mutex_);
      if (!inject_queue_.empty()) {
        task = inject_queue_.front();
        inject_queue_.pop_front();
        inject_size_.fetch_sub(1, std::memory_order_release);
      }
    }
    if (task != nullptr) {
      execute(worker_id, task);
      return true;
    }
  }
  return false;
}

void ForkJoinPool::wake_if_idle() {
  // Store-load ordering (Dekker): the caller's publish of the task (a
  // release store of a deque's bottom_, or the inject counter) must be
  // ordered before this read of num_idle_, and the worker's idle
  // announcement before its re-scan below. Without both fences a
  // worker can miss the task and sleep while the publisher sees no
  // idler and skips the wake.
  //
  // A worker may still sleep with a task queued: steal() reports a race
  // lost to another thief as empty. Here that only idles the worker —
  // a deque's owner is always running a task or helping in
  // TaskGroup::wait, which pops its own deque first (PBFS waits only
  // through TaskGroups). Regions whose members barrier against each
  // other need them all running at once: ThreadTeam's job (DESIGN.md §2).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (num_idle_.load(std::memory_order_acquire) > 0) {
    wake_epoch_.fetch_add(1, std::memory_order_acq_rel);
    wake_epoch_.notify_all();
  }
}

void ForkJoinPool::worker_loop(int id) {
  tls_pool = this;
  tls_worker_id = id;
  int failures = 0;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (try_run_one(id)) {
      failures = 0;
      continue;
    }
    if (++failures < 4) {
      std::this_thread::yield();
      continue;
    }
    // Idle protocol: announce idleness, re-check for work (a task may
    // have been published between the failed scan and the announcement),
    // then sleep until the wake epoch moves (a re-scan that loses a
    // steal race sleeps with work queued; see wake_if_idle).
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_acquire);
    num_idle_.fetch_add(1, std::memory_order_acq_rel);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see wake_if_idle
    if (try_run_one(id)) {
      num_idle_.fetch_sub(1, std::memory_order_acq_rel);
      failures = 0;
      continue;
    }
    if (!shutting_down_.load(std::memory_order_acquire)) {
      wake_epoch_.wait(epoch, std::memory_order_acquire);
    }
    num_idle_.fetch_sub(1, std::memory_order_acq_rel);
    failures = 0;
  }
  tls_pool = nullptr;
  tls_worker_id = -1;
}

}  // namespace optibfs
