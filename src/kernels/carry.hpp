// Carrying kernel answers across graph versions (DESIGN.md §11.5).
//
// The kernels recompute from nothing; a served graph changes by small
// update batches. These rules take an answer that is exact for one
// version (`before`) to the answer for a later one (`after`), doing
// work that follows the batch instead of the graph — the same bet
// IncrementalBfsEngine makes for BFS levels:
//
//  * CC: an insert that joins two labels relabels the larger label's
//    side (labels stay the min ORIGINAL id). A delete runs a bounded
//    bidirectional search between its endpoints: a path means nothing
//    changed; an exhausted side is a whole component and splits off.
//  * KCORE: the traversal algorithm of Sariyüce et al. (VLDB 2013). A
//    unit insert can raise only core-K vertices (K = min of the
//    endpoints' cores) reachable from an endpoint through core-K
//    vertices, by exactly 1; the max-core degree prunes the walk and
//    evictions stop it early. Deletes lower cores by an h-index descent
//    from the old cores, which are an upper bound once edges only go.
//  * PRDELTA: the residual correction of Ohsaka et al. (KDD 2015). For
//    every vertex whose out-edges changed, move its old contribution
//    out of the old neighbours' residuals and its new one into the new
//    neighbours', keeping r = (1-d)·1 + d·Pᵀ·rank − rank exact; the
//    seeded push rounds (PageRankDeltaKernel::run_from) finish the job.
//
// Everything is in ORIGINAL vertex ids and reads the graph only through
// GraphSnapshot (CSR ∪ delta, no flatten, no transpose build), so a
// compaction or a reordered base between the two versions changes
// nothing. All of it is serial: a carry runs once per version, on the
// replica that asks first, and its work is the batch's, not the graph's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/types.hpp"

namespace optibfs::kernels {

/// How the multiplicity of one directed pair moved between versions.
struct PairChange {
  vid_t src = 0;
  vid_t dst = 0;
  std::uint32_t before = 0;  ///< copies of src -> dst in `before`
  std::uint32_t after = 0;   ///< copies in `after`
};

/// The pairs among `touched` (batch summaries' inserts and deletes, in
/// any order, repeats allowed) whose multiplicity differs between the
/// two versions, each once.
std::vector<PairChange> net_changes(
    const GraphSnapshot& before, const GraphSnapshot& after,
    const std::vector<std::pair<vid_t, vid_t>>& touched);

/// Takes CC `labels` (min original id per component) and `sizes`
/// (vertex count per label) from `before` to `after`. Returns false
/// when it runs past its budget (two full passes of neighbour visits);
/// the arrays are then garbage and the caller recomputes.
bool carry_components(const GraphSnapshot& before, const GraphSnapshot& after,
                      const std::vector<PairChange>& changes,
                      std::vector<vid_t>& labels, std::vector<vid_t>& sizes);

/// Takes core numbers (superposed out+in multigraph, self-loops
/// counting 2) from `before` to `after`. Returns false when it runs
/// past the same budget; `core` is then garbage and the caller
/// recomputes.
bool carry_core(const GraphSnapshot& after,
                const std::vector<PairChange>& changes,
                std::vector<std::uint32_t>& core);

/// Re-targets the PageRank residual for `after`'s out-edges, given the
/// carried `rank`: exact for r = (1-d)·1 + d·Pᵀ·rank − rank (dangling
/// mass dropped). Push rounds from (rank, residual) then converge to
/// `after`'s fixpoint.
void carry_residual(const GraphSnapshot& before, const GraphSnapshot& after,
                    const std::vector<PairChange>& changes, double damping,
                    const std::vector<double>& rank,
                    std::vector<double>& residual);

}  // namespace optibfs::kernels
