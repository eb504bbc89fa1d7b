// Beamer, Asanovic & Patterson, "Direction-optimizing breadth-first
// search" (SC 2012) — the hybrid top-down / bottom-up traversal the
// IPDPSW paper discusses in §II and §IV-D. Included as an extension
// baseline: it is the contemporaneous state of the art that *also*
// relies on atomic instructions (CAS claims in the top-down steps),
// so it slots naturally into the comparison matrix.
//
// Top-down steps expand the frontier queue as usual; once the frontier
// touches a large fraction of the remaining edges (alpha rule), levels
// switch to bottom-up: every unvisited vertex scans its *in*-neighbors
// for a parent on the frontier, stopping at the first hit. Small
// frontiers switch back (beta rule).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/bfs_engine.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/thread_team.hpp"

namespace optibfs {

class DirectionOptimizingBFS final : public ParallelBFS {
 public:
  /// Materializes graph.transpose() up front (bottom-up needs in-edges).
  DirectionOptimizingBFS(const CsrGraph& graph, BFSOptions opts,
                         TeamHandle team, int alpha = 15, int beta = 18);

  void run(vid_t source, BFSResult& out) override;
  std::string_view name() const override { return "DO_BFS"; }
  const BFSOptions& options() const override { return opts_; }

 private:
  struct ThreadCounters {
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    std::uint64_t next_count = 0;
    std::uint64_t next_edges = 0;  ///< out-degree sum of discoveries
  };

  const CsrGraph& graph_;
  const CsrGraph& transpose_;
  const BFSOptions opts_;
  const int alpha_;
  const int beta_;
  const int p_;

  SpinBarrier barrier_;
  /// Frontier membership bitmaps for bottom-up (current and next).
  std::vector<std::atomic<std::uint64_t>> front_bits_;
  std::vector<std::atomic<std::uint64_t>> next_bits_;
  std::vector<vid_t> frontier_;
  std::vector<std::vector<vid_t>> local_next_;
  std::vector<CacheAligned<ThreadCounters>> counters_;
  TeamHandle team_;  ///< declared last: workers must never outlive state
};

}  // namespace optibfs
