// Baseline2: Hong, Oguntebi & Olukotun, "Efficient parallel graph
// exploration on multicore CPU and GPU" (PACT 2011) — the four
// multicore CPU variants the paper compares against.
//
// In contrast to the optimistic engines, these use atomic
// read-modify-write instructions to keep frontier membership exact:
//
//  * kQueue       — queue-based traversal; a visited *bitmap* claimed
//                   with fetch_or dedups discoveries ("Queue + bitmap").
//  * kRead        — read-based: no queue at all; every level scans the
//                   whole level array and expands vertices at the
//                   current depth ("Read array").
//  * kHybrid      — per-level adaptive choice between queue mode
//                   (claiming via CAS on the level array) and read mode.
//  * kHybridBitmap— the adaptive scheme with the bitmap claim — the
//                   "Local queue + read + bitmap" configuration that
//                   wins on the paper's dense RMAT graphs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/bfs_engine.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/thread_team.hpp"

namespace optibfs {

enum class HongVariant { kQueue, kRead, kHybrid, kHybridBitmap };

/// Registry/display name ("HONG_QUEUE", ...).
std::string_view hong_variant_name(HongVariant variant);

class HongBFS final : public ParallelBFS {
 public:
  HongBFS(const CsrGraph& graph, BFSOptions opts, HongVariant variant,
          TeamHandle team);

  void run(vid_t source, BFSResult& out) override;
  std::string_view name() const override {
    return hong_variant_name(variant_);
  }
  const BFSOptions& options() const override { return opts_; }

 private:
  struct ThreadCounters {
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t next_count = 0;  ///< read mode: discoveries this level
  };

  bool use_bitmap() const {
    return variant_ == HongVariant::kQueue ||
           variant_ == HongVariant::kHybridBitmap;
  }

  /// True if level `depth` should run in read mode.
  bool choose_read_mode(std::uint64_t frontier_size) const;

  /// Claims w for this thread. Exactly one claimant succeeds — via
  /// bitmap fetch_or or level-array CAS depending on the variant.
  bool claim(BFSResult& out, vid_t w, level_t next_depth);

  const CsrGraph& graph_;
  const BFSOptions opts_;
  const HongVariant variant_;
  const int p_;

  SpinBarrier barrier_;
  std::vector<std::atomic<std::uint64_t>> bitmap_;
  std::vector<vid_t> frontier_;
  std::vector<std::vector<vid_t>> local_next_;
  std::vector<CacheAligned<ThreadCounters>> counters_;
  TeamHandle team_;  ///< declared last: workers must never outlive state
};

}  // namespace optibfs
