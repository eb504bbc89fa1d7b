// k-core decomposition by optimistic peeling.
//
// Degree semantics: deg(v) counts the superposed out+in multigraph
// (every directed edge contributes to both endpoints; a self-loop adds
// 2). The serial reference (reference.hpp) peels the same multigraph,
// so results compare exactly.
//
// KCORE (optimistic): peel levels k = 0, 1, 2, ... For each k, repeat
// owner-computes peel passes: an owner peels its alive vertices whose
// tracked degree is <= k (core[v] = k) and decrements each neighbor's
// tracked degree with a plain relaxed load+store. Concurrent
// decrements of the same neighbor can lose updates — the tracked
// degree only ever reads too HIGH, never too low, so nothing is ever
// peeled early. When a pass peels nothing, a quiescent recount pass
// recomputes exact degrees owner-computes over the (now stable) alive
// set; anything the lost decrements had hidden below k is found and
// peeling resumes. A clean recount proves level k is exhausted.
//
// KCORE_RMW (ablation): fetch_sub keeps tracked degrees exact, so a
// quiet peel pass ends the level with no recount — one atomic RMW per
// peeled edge instead. bench_kernels measures the trade.
#pragma once

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/edgemap.hpp"
#include "kernels/kernel.hpp"

namespace optibfs::kernels {

class KCoreKernel final : public GraphKernel {
 public:
  KCoreKernel(const CsrGraph& g, const BFSOptions& opts, bool use_rmw,
              TeamHandle team);

  const char* name() const override {
    return use_rmw_ ? "KCORE_RMW" : "KCORE";
  }
  void run(KernelResult& out) override;

 private:
  const CsrGraph& g_;
  bool use_rmw_;
  int max_rounds_;
  KernelSubstrate sub_;
  std::vector<vid_t> deg_;
  std::vector<unsigned char> dead_;
  std::vector<std::uint32_t> core_;
};

}  // namespace optibfs::kernels
