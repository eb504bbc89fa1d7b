// Beyond-BFS kernel suite: the common result/interface contract.
//
// The paper's thesis — optimistic plain-store updates repaired at
// quiescent windows instead of locks/atomic RMW — is not BFS-specific.
// Every kernel here keeps per-vertex state whose useful updates are
// monotone (labels only decrease, degrees only decrease, residual mass
// only moves forward), so stale reads cost redundant work, never
// correctness. DESIGN.md §11 carries the per-kernel taxonomy of which
// updates are plain-store-safe and which need a documented RMW
// exemption (MIS conflict demotion is the only one).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "telemetry/counters.hpp"

namespace optibfs::kernels {

/// What a kernel run produces. Only the fields a given kernel fills are
/// meaningful (see each kernel's header); everything indexed by vertex
/// is in ORIGINAL vertex IDs, the same convention the BFS engines use
/// for reordered graphs.
struct KernelResult {
  std::string name;

  /// Substrate rounds to convergence (barrier-separated super-steps,
  /// including repair/verify passes).
  int rounds = 0;

  /// CC: component label per vertex — the smallest ORIGINAL vertex id
  /// in the component. MIS: 1 = in the independent set, 0 = out.
  std::vector<vid_t> labels;

  /// k-core: core number per vertex (degree counted over the
  /// superposed out+in multigraph, see kcore.hpp).
  std::vector<std::uint32_t> core;

  /// delta-PageRank: rank per vertex (dangling mass dropped, see
  /// pagerank_delta.hpp), and the residual left at convergence (every
  /// |residual| <= epsilon) — what a later version's run_from() resumes.
  std::vector<double> rank;
  std::vector<double> residual;

  /// Aggregated flight-recorder counters for the run (taken at the
  /// final join — a quiescent point, per the telemetry discipline).
  telemetry::CounterSnapshot counters;
};

/// A runnable kernel bound to one graph. Construct via
/// kernel_registry.hpp's make_kernel; run() may be called repeatedly
/// (each call recomputes from scratch and overwrites `out`).
class GraphKernel {
 public:
  virtual ~GraphKernel() = default;

  /// Registry name (CC, KCORE, MIS, PRDELTA, or an _RMW ablation).
  virtual const char* name() const = 0;

  virtual void run(KernelResult& out) = 0;
};

}  // namespace optibfs::kernels
