// Connected components by optimistic min-label propagation.
//
// State: labels[v], initialized to v, over the superposed out+in view
// (components of the underlying undirected graph; this kernel is the
// library's one CC). Useful updates are monotone: a label only ever
// decreases, so a stale read at worst re-pushes a value that was
// already beaten (redundant work, counted, never wrong).
//
// CC (optimistic): pushes store the smaller label with a plain relaxed
// store. Two concurrent writers can lose the smaller of two updates
// (the store is not a min-RMW) — the repair is a quiescent
// owner-computes verify pass once the frontier drains: each owner
// re-pulls the min over its vertices' neighborhoods (exact — only the
// owner writes), reactivating anything it fixes. Verify-clean means
// every edge is label-equal, i.e. a true fixpoint. A short-circuit
// hook (one hop of pointer jumping through labels[labels[u]]) keeps
// round counts low on long paths.
//
// CC_RMW (ablation): the textbook CAS-min push. No lost updates, no
// repair work — but one atomic RMW per improving edge, which is
// exactly the cost the paper's discipline avoids. bench_kernels
// measures the difference.
#pragma once

#include <memory>

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/edgemap.hpp"
#include "kernels/kernel.hpp"

namespace optibfs::kernels {

class ComponentsKernel final : public GraphKernel {
 public:
  ComponentsKernel(const CsrGraph& g, const BFSOptions& opts, bool use_cas,
                   TeamHandle team);

  const char* name() const override { return use_cas_ ? "CC_RMW" : "CC"; }
  void run(KernelResult& out) override;

 private:
  const CsrGraph& g_;
  bool use_cas_;
  KernelSubstrate sub_;
  std::vector<vid_t> labels_;
};

}  // namespace optibfs::kernels
