#include "core/frontier_queues.hpp"

#include <cstring>
#include <stdexcept>

namespace optibfs {

FrontierQueues::FrontierQueues(int num_queues, vid_t max_vertices,
                               bool defer_init, bool huge_pages)
    : num_queues_(num_queues),
      capacity_(static_cast<std::int64_t>(max_vertices) + 1),
      out_count_(static_cast<std::size_t>(num_queues)),
      in_rear_(static_cast<std::size_t>(num_queues)),
      in_front_(static_cast<std::size_t>(num_queues)) {
  if (num_queues < 1) {
    throw std::invalid_argument("FrontierQueues: need at least one queue");
  }
  const std::size_t slots = static_cast<std::size_t>(num_queues) *
                            static_cast<std::size_t>(capacity_);
  a_.grow(slots, huge_pages);
  b_.grow(slots, huge_pages);
  in_ = a_.data();
  out_ = b_.data();
  // All slots must read 0 (the empty sentinel) before first use; the
  // swap discipline keeps them that way afterwards. Deferred init hands
  // that zeroing to the per-queue owner threads (first-touch placement);
  // otherwise do it here, matching the old vector value-init behavior.
  if (!defer_init) {
    for (int q = 0; q < num_queues_; ++q) init_queue(q);
  }
}

void FrontierQueues::init_queue(int q) {
  const std::size_t bytes =
      static_cast<std::size_t>(capacity_) * sizeof(std::atomic<vid_t>);
  const std::size_t offset =
      static_cast<std::size_t>(q) * static_cast<std::size_t>(capacity_);
  std::memset(static_cast<void*>(a_.data() + offset), 0, bytes);
  std::memset(static_cast<void*>(b_.data() + offset), 0, bytes);
}

void FrontierQueues::swap_and_prepare() {
  std::swap(in_, out_);
  total_in_ = 0;
  total_in_edges_ = 0;
  for (int q = 0; q < num_queues_; ++q) {
    OutCount& count = out_count_[static_cast<std::size_t>(q)].value;
    in_rear_[static_cast<std::size_t>(q)].value.store(
        count.entries, std::memory_order_relaxed);
    in_front_[static_cast<std::size_t>(q)].value.store(
        0, std::memory_order_relaxed);
    total_in_ += count.entries;
    total_in_edges_ += count.edges;
    count = OutCount{};
  }
}

void FrontierQueues::hard_reset() {
  for (int q = 0; q < num_queues_; ++q) init_queue(q);
  for (auto& count : out_count_) count.value = OutCount{};
  for (auto& rear : in_rear_) rear.value.store(0, std::memory_order_relaxed);
  for (auto& front : in_front_) {
    front.value.store(0, std::memory_order_relaxed);
  }
  total_in_ = 0;
  total_in_edges_ = 0;
}

std::int64_t FrontierQueues::retire_in(int q, bool clear) {
  const std::int64_t rear =
      in_rear_[static_cast<std::size_t>(q)].value.load(
          std::memory_order_relaxed);
  std::atomic<vid_t>* slots =
      in_ + static_cast<std::size_t>(q) * static_cast<std::size_t>(capacity_);
  std::int64_t live = 0;
  for (std::int64_t i = 0; i < rear; ++i) {
    if (slots[i].load(std::memory_order_relaxed) == 0) continue;
    ++live;
    if (clear) slots[i].store(0, std::memory_order_relaxed);
  }
  return live;
}

void FrontierQueues::seed(vid_t source, vid_t degree) {
  // Push into the out side, then promote it to the in side — the same
  // path every later level takes, so all invariants hold from level 0.
  push_out(0, source, degree);
  swap_and_prepare();
}

}  // namespace optibfs
