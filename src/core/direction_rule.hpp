// The top-down / bottom-up switch of the hybrid engines (DESIGN.md §3.3a).
//
// One rule serves every level-synchronous traversal that direction-
// optimizes: the single-source hybrid engines (BFSEngineBase, the `_H`
// registry names) and MS-BFS waves (MsBfsSession). The caller hands it
// each new frontier in the single-threaded barrier window and reads back
// the next level's direction; the rule itself is plain single-writer
// state, never touched by the workers.
//
// It is Beamer's alpha/beta heuristic with one change on the way down:
// bottom-up is entered only while the frontier is expanding (see
// kGrowthFactor). The DO_BFS baseline keeps Beamer's original rule in
// baselines/direction_optimizing.cpp, since that is the baseline being
// reproduced.
#pragma once

#include <algorithm>
#include <cstdint>

#include "graph/types.hpp"

namespace optibfs {

class DirectionRule {
 public:
  /// Entry guard: a top-down level may hand over to bottom-up only when
  /// its frontier is at least this many times the previous one. Beamer's
  /// growth guard exists to catch the expansion phase of a low-diameter
  /// graph, where the frontier multiplies level after level. A mesh's
  /// frontier instead plateaus and wobbles by a few percent; with a bare
  /// "bigger than last level" guard every uptick fires a one-level
  /// bottom-up excursion (an O(n) frontier-bitmap rebuild plus an in-edge
  /// scan of every unvisited vertex) that the beta rule undoes at once.
  static constexpr std::int64_t kGrowthFactor = 2;

  /// alpha == 0 never goes bottom-up; beta == 0 leaves bottom-up after
  /// one level (BFSOptions::alpha / beta).
  DirectionRule(int alpha, int beta, vid_t num_vertices)
      : alpha_(static_cast<std::uint64_t>(std::max(0, alpha))),
        leave_below_(beta > 0 ? static_cast<std::uint64_t>(num_vertices) /
                                    static_cast<std::uint64_t>(beta)
                              : 0),
        stay_(beta > 0) {}

  /// Run start: every one of `num_edges` edges is unexplored, the
  /// direction is top-down, and the current frontier holds `size`
  /// vertices with `edges` out-edges (zero when the caller will pass the
  /// seed frontier to next() instead).
  void reset(std::uint64_t num_edges, std::int64_t size = 0,
             std::uint64_t edges = 0) {
    edges_unexplored_ = num_edges;
    frontier_edges_ = edges;
    frontier_size_ = size;
    bottom_up_ = false;
  }

  /// Barrier window after a level: the next frontier holds `size`
  /// vertices with `edges` out-edges. Returns whether it runs bottom-up.
  bool next(std::int64_t size, std::uint64_t edges) {
    // The edges the finished frontier could scan are no longer unexplored.
    edges_unexplored_ -= std::min(edges_unexplored_, frontier_edges_);
    frontier_edges_ = edges;
    const std::int64_t prev_size = frontier_size_;
    frontier_size_ = size;
    if (size <= 0 || alpha_ == 0) {
      bottom_up_ = false;
    } else if (!bottom_up_) {
      // Alpha rule, in overflow-safe division form: the frontier's
      // out-edges exceed 1/alpha of the unexplored edges.
      bottom_up_ = size >= kGrowthFactor * prev_size &&
                   edges > edges_unexplored_ / alpha_;
    } else {
      // Beta rule: stay while the frontier is still at least n/beta.
      bottom_up_ = stay_ && static_cast<std::uint64_t>(size) >= leave_below_;
    }
    return bottom_up_;
  }

 private:
  const std::uint64_t alpha_;
  const std::uint64_t leave_below_;  ///< n / beta
  const bool stay_;                  ///< beta > 0
  std::uint64_t edges_unexplored_ = 0;
  std::uint64_t frontier_edges_ = 0;
  std::int64_t frontier_size_ = 0;  ///< previous level, for the growth guard
  bool bottom_up_ = false;
};

}  // namespace optibfs
