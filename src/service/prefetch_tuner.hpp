// Registration-time prefetch-distance auto-tuning (DESIGN.md §13).
//
// The locality layer's software-prefetch lookahead
// (BFSOptions::prefetch_distance) has no safe fixed default: a fixed 8
// regressed BENCH_locality on mesh-like graphs while a fixed 0 left
// rmat wins on the table (the postmortem lives in EXPERIMENTS.md). The
// service therefore times candidates on the registered graph itself
// and builds that graph's engines with the winners.
//
// This version closes three gaps in the original register_graph probe:
//
//  * candidates widened from {0, 8} to {0, 4, 8, 16} — the regression
//    case wants the short end, hub-heavy graphs reward the long end;
//  * three traversal families are probed independently, because their
//    random probe arrays differ: the single-source engines chase
//    level[], MS-BFS waves chase the seen_/visit_ mask words, and the
//    edgemap kernels chase per-vertex kernel state (CC labels);
//  * provenance. A graph below the probe floor used to *report* the
//    configured distance as if it had been tuned; PrefetchChoice
//    carries an explicit probed/configured bit that ServiceStats
//    surfaces, so a bench reading "prefetch_distance": 8 can tell a
//    measured winner from a passed-through default.
#pragma once

#include <string>

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"

namespace optibfs {

/// One prefetch-distance decision plus where it came from.
struct PrefetchChoice {
  int distance = 0;
  /// true: `distance` won a timed probe on this graph.
  /// false: the graph is below kPrefetchProbeMinVertices, so the probe
  /// was skipped and `distance` is the configured value.
  bool probed = false;
};

/// Per-traversal-family decisions for one registered graph.
struct PrefetchPlan {
  PrefetchChoice single_source;  ///< batch-of-1 engine (level[] probes)
  PrefetchChoice wave;           ///< MS-BFS sessions (mask-word probes)
  PrefetchChoice kernel;         ///< edgemap kernels (kernel-state probes)
};

/// Below this the probe cannot measure anything above timer noise and
/// is skipped (choices fall back to `base.prefetch_distance`,
/// probed = false).
inline constexpr vid_t kPrefetchProbeMinVertices = 32768;

/// Times prefetch-distance candidates {0, 4, 8, 16} for all three
/// traversal families on `graph` (best-of-2 runs per candidate, one
/// deterministic sampled source set) and returns the winners. Cost: a
/// few dozen traversals at registration, amortized over the graph's
/// serving lifetime. Every probe runs on one team of `num_threads`
/// workers that the call owns (pinned when base.pin_threads).
PrefetchPlan tune_prefetch(const CsrGraph& graph, const BFSOptions& base,
                           const std::string& single_source_engine,
                           int num_threads);

}  // namespace optibfs
