// Delta-PageRank: residual (delta) pushing on the optimistic discipline.
//
// Solves rank = (1-d)*1 + d*M^T rank, where M drops the columns of
// zero-out-degree vertices (dangling mass is discarded — documented,
// and mirrored by the serial reference). Every push keeps the
// invariant residual = (1-d)*1 + d*M^T rank - rank. A run from scratch
// starts at (rank, residual) = (0, 1-d); run_from() starts wherever a
// carried state left it (kernels/carry.hpp re-targets an earlier
// version's residual to the current edges, which can make some
// negative). A round moves each residual with |r| > BFSOptions::
// pr_epsilon into the vertex's rank and pushes d*r/outdeg to its
// out-neighbors; rounds end when every |r| <= epsilon, which bounds the
// answer within n*epsilon/(1-d) of the fixpoint in L1. From scratch
// every residual stays positive, so work only ever moves mass forward
// and the kernel is the suite's cleanest monotone citizen.
//
// PRDELTA (optimistic), the writer rule: during the push phase every
// residual cell has exactly one writer, the owner of its vertex's
// degree-balanced slice. A share for a vertex in the pusher's own
// slice goes straight into its residual with a PLAIN store (in place:
// a vertex later in the slice pushes it on this same round), and a
// share for any other slice accumulates into the pusher's private
// cache-line-independent slab — exactly one writer again, the flight
// recorder's counter pattern lifted to doubles. At the barrier window
// the slabs are reduced owner-computes (each owner folds its slice
// across the other threads' slabs and re-zeroes it), so the reduction
// is exact and race-free. The entire kernel runs with ZERO atomics
// outside the barriers themselves — stricter even than relaxed plain
// stores. With one thread every share is in place, so the schedule is
// exactly PRDELTA_RMW's, without the RMW.
//
// PRDELTA_RMW (ablation): contributions go straight into the shared
// residual array through compare-exchange add loops, and owners drain
// with an atomic exchange — the textbook contended-accumulator
// design. Same fixpoint (within epsilon slack); bench_kernels
// measures the RMW traffic against the slab reduction. With more than
// one thread the two also differ in schedule: a cross-slice share is
// visible at once to PRDELTA_RMW and only after the fold to PRDELTA.
#pragma once

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/edgemap.hpp"
#include "kernels/kernel.hpp"

namespace optibfs::kernels {

class PageRankDeltaKernel final : public GraphKernel {
 public:
  PageRankDeltaKernel(const CsrGraph& g, const BFSOptions& opts,
                      bool use_rmw, TeamHandle team);

  const char* name() const override {
    return use_rmw_ ? "PRDELTA_RMW" : "PRDELTA";
  }
  /// From scratch: run_from() at (0, 1-d).
  void run(KernelResult& out) override;
  /// Pushes from a carried (rank, residual), both in ORIGINAL ids,
  /// until every |residual| <= epsilon. Fills out.rank and out.residual
  /// (on an unreordered graph the arrays move through, uncopied).
  void run_from(std::vector<double> rank, std::vector<double> residual,
                KernelResult& out);

 private:
  /// The push rounds, from rank_ / residual_ (internal ids).
  void push(KernelResult& out);

  const CsrGraph& g_;
  bool use_rmw_;
  double damping_;
  double epsilon_;
  int max_rounds_;
  KernelSubstrate sub_;
  std::vector<double> rank_;
  std::vector<double> residual_;
  std::vector<std::vector<double>> slab_;  // [thread][vertex], cross-slice shares
};

}  // namespace optibfs::kernels
