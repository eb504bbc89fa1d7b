// Maximal independent set, optimistic Luby-style.
//
// Vertices carry status 0 = undecided, 1 = in, 2 = out, and a fixed
// random priority hash(seed, v); ties break on vertex id, so (prio,
// id) is a total order. The underlying graph is the superposed out+in
// view (an MIS of the undirected graph).
//
// MIS (optimistic): this is the suite's genuinely speculative kernel.
// An active undecided vertex with no in-neighbor visible through
// relaxed reads ENTERS the set immediately — no priority gate — and
// then re-checks its neighborhood for a conflicting simultaneous
// entrant. Store buffering means two adjacent entrants can BOTH miss
// each other in their re-checks (the classic SB litmus), so a
// quiescent verify pass backstops the re-check: owners demote the
// (prio, id)-loser of any surviving in-in edge, resurrect any vertex
// marked out whose in-neighbor later got demoted, and reactivate
// undecided leftovers. The in-round demotion itself is the suite's
// ONE documented atomic-RMW exemption (DESIGN.md §11): a conflict
// edge is spotted by up to two processors (plus duplicate sparse
// entries), and the demotion must also re-activate the victim exactly
// once — a CAS 1 -> 0 makes one winner own that obligation. Plain
// stores would demote idempotently but could double-activate or let
// both processors count the same demotion.
//
// MIS_RMW (ablation): the classic non-speculative Luby — a vertex
// enters only when it holds the (prio, id) minimum over its undecided
// neighbors, and every status transition is a CAS. Monotone (no
// demotions, no repair), but pays one RMW per decision and waits on
// the priority gate instead of speculating.
#pragma once

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "kernels/edgemap.hpp"
#include "kernels/kernel.hpp"

namespace optibfs::kernels {

class MisKernel final : public GraphKernel {
 public:
  MisKernel(const CsrGraph& g, const BFSOptions& opts, bool use_rmw,
            TeamHandle team);

  const char* name() const override { return use_rmw_ ? "MIS_RMW" : "MIS"; }
  void run(KernelResult& out) override;

 private:
  const CsrGraph& g_;
  bool use_rmw_;
  KernelSubstrate sub_;
  std::vector<unsigned char> status_;
  std::vector<std::uint64_t> prio_;
};

}  // namespace optibfs::kernels
