#include "runtime/thread_team.hpp"

#include <stdexcept>
#include <utility>

#include "runtime/mem_topology.hpp"

namespace optibfs {

// After a region a worker yields this many times before it parks, so
// back-to-back regions (a replica's next claim) skip the futex wake-up
// of a parked, possibly halted CPU.
constexpr int kYieldsBeforePark = 1024;

ThreadTeam::ThreadTeam(int num_threads, std::vector<int> pin_cpus)
    : num_threads_(num_threads), pin_cpus_(std::move(pin_cpus)) {
  if (num_threads < 1) {
    throw std::invalid_argument("ThreadTeam: need at least one thread");
  }
  threads_.reserve(static_cast<std::size_t>(num_threads_));
  for (int tid = 0; tid < num_threads_; ++tid) {
    threads_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadTeam::~ThreadTeam() {
  shutting_down_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadTeam::run(const std::function<void(int)>& body) {
  body_ = &body;
  first_error_ = nullptr;
  remaining_.store(num_threads_, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (int left = remaining_.load(std::memory_order_acquire); left != 0;
       left = remaining_.load(std::memory_order_acquire)) {
    remaining_.wait(left, std::memory_order_acquire);
  }
  body_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadTeam::worker_loop(int tid) {
  // Pin before the first region so even first-run first-touch faults
  // land on the right socket. Best-effort: failure just leaves this
  // worker floating (the container's cpuset may not include the cpu).
  if (static_cast<std::size_t>(tid) < pin_cpus_.size() &&
      pin_cpus_[static_cast<std::size_t>(tid)] >= 0 &&
      mem::pin_current_thread_to_cpu(
          pin_cpus_[static_cast<std::size_t>(tid)])) {
    pinned_.fetch_add(1, std::memory_order_relaxed);
  }
  // run() bumps epoch_ only once every member finished the last region.
  std::uint32_t seen_epoch = 0;
  for (;;) {
    for (int i = 0; i < kYieldsBeforePark &&
                    epoch_.load(std::memory_order_relaxed) == seen_epoch;
         ++i) {
      std::this_thread::yield();
    }
    epoch_.wait(seen_epoch, std::memory_order_acquire);
    seen_epoch = epoch_.load(std::memory_order_acquire);
    if (shutting_down_.load(std::memory_order_relaxed)) return;
    try {
      (*body_)(tid);
    } catch (...) {
      std::lock_guard lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.notify_one();
    }
  }
}

}  // namespace optibfs
