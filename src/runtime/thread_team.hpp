// Persistent worker team for the paper's explicitly load-balanced BFS.
//
// The paper's algorithms manage their own work distribution across a
// fixed set of p workers (cilk++ only supplies the workers, not the
// balancing). ThreadTeam reproduces that execution model: p threads are
// created once and reused across every BFS source, so the measured time
// per source contains no thread start-up cost — the same amortization
// the paper gets from persistent cilk workers across its 1000 sources.
//
// Usage:
//   ThreadTeam team(8);
//   team.run([&](int tid) { ... level-synchronous BFS body ... });
//
// run() blocks until every worker finished the region. Exceptions thrown
// inside a region are captured and rethrown (first one wins) on the
// caller — a parallel region must not silently swallow a failure.
// Every team-run traversal holds its team through a TeamHandle, owned
// or borrowed, so a serving replica runs all of its traversals on one
// set of workers (DESIGN.md §2).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/topology.hpp"

namespace optibfs {

class ThreadTeam {
 public:
  /// Creates `num_threads` persistent workers (>= 1). Worker tid pins
  /// itself to pin_cpus[tid] before its first region (entries < 0 or
  /// past the vector's end mean "don't pin"). Pinning is best-effort: a
  /// failed setaffinity leaves the worker floating, and pinned_threads()
  /// reports how many sticks actually took — the figure ServiceStats
  /// and the benches record.
  explicit ThreadTeam(int num_threads, std::vector<int> pin_cpus = {});
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int num_threads() const { return num_threads_; }

  /// Workers whose affinity call succeeded (0 when constructed without
  /// a pin map or on platforms without pinning).
  int pinned_threads() const {
    return pinned_.load(std::memory_order_relaxed);
  }

  /// Runs body(tid) for tid in [0, num_threads) in parallel; blocks
  /// until all finish. Rethrows the first worker exception.
  void run(const std::function<void(int)>& body);

 private:
  void worker_loop(int tid);

  const int num_threads_;
  const std::vector<int> pin_cpus_;
  std::atomic<int> pinned_{0};
  std::vector<std::thread> threads_;

  // Region handoff with no mutex, so members start together instead of
  // passing a lock along one wake-up at a time: run() publishes body_
  // and bumps epoch_ (one futex wake for all); the last member to
  // decrement remaining_ wakes the caller.
  const std::function<void(int)>* body_ = nullptr;
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> shutting_down_{false};
  std::mutex error_mutex_;  // first_error_, written on the throw path only
  std::exception_ptr first_error_;
};

/// A traversal's team, owned or borrowed. One caller at a time, like
/// the ThreadTeam itself.
class TeamHandle {
 public:
  /// Owns max(1, num_threads) workers, started here or, when
  /// `deferred`, by the first get() (a holder that may never run in
  /// parallel then starts no thread); `pin` pins them with the physical
  /// topology's cpu map (BFSOptions::pin_threads).
  TeamHandle(int num_threads, bool pin, bool deferred = false)
      : width_(num_threads < 1 ? 1 : num_threads), pin_(pin) {
    if (!deferred) get();
  }
  /// Borrows `team` (must outlive the handle) and takes its width.
  explicit TeamHandle(ThreadTeam& team)
      : width_(team.num_threads()), team_(&team) {}

  int width() const { return width_; }
  ThreadTeam& get() {
    if (team_ == nullptr) {
      owned_ = std::make_unique<ThreadTeam>(
          width_, pin_ ? Topology::physical(width_).cpu_map()
                       : std::vector<int>{});
      team_ = owned_.get();
    }
    return *team_;
  }
  void run(const std::function<void(int)>& body) { get().run(body); }
  /// The team's pinned workers (0 before an owned team exists).
  int pinned_threads() const {
    return team_ != nullptr ? team_->pinned_threads() : 0;
  }

 private:
  int width_;
  bool pin_ = false;
  std::unique_ptr<ThreadTeam> owned_;
  ThreadTeam* team_ = nullptr;
};

}  // namespace optibfs
