// Delta-PageRank: residual (delta) pushing on the optimistic discipline.
//
// Solves rank = (1-d)*1 + d*M^T rank, where M drops the columns of
// zero-out-degree vertices (dangling mass is discarded — documented,
// and mirrored by the serial reference). Every vertex starts with
// residual (1-d); a round moves each super-epsilon residual into the
// vertex's rank and pushes d*r/outdeg to its out-neighbors; rounds end
// when no residual clears the BFSOptions::pr_epsilon threshold. Work
// only ever moves mass forward, so the kernel is the suite's cleanest
// monotone citizen.
//
// PRDELTA (optimistic): contributions accumulate into per-thread
// cache-line-independent rank slabs with PLAIN stores — each slab has
// exactly one writer during the push phase, exactly the flight
// recorder's counter pattern lifted to doubles. At the barrier window
// the slabs are reduced owner-computes (each owner folds its vertex
// slice across all slabs and re-zeroes it), so the reduction is exact
// and race-free. The entire kernel runs with ZERO atomics outside the
// barriers themselves — stricter even than relaxed plain stores.
//
// PRDELTA_RMW (ablation): contributions go straight into the shared
// residual array through compare-exchange add loops, and owners drain
// with an atomic exchange — the textbook contended-accumulator
// design. Same fixpoint (within epsilon slack); bench_kernels
// measures the RMW traffic against the slab reduction.
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
  void run(KernelResult& out) override;

 private:
  const CsrGraph& g_;
  bool use_rmw_;
  double damping_;
  double epsilon_;
  int max_rounds_;
  KernelSubstrate sub_;
  std::vector<double> rank_;
  std::vector<double> residual_;
  std::vector<std::vector<double>> slab_;  // [thread][vertex]
};

}  // namespace optibfs::kernels
