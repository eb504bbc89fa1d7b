// Name-based factory for every BFS implementation in the library.
//
// One string namespace covers the paper's algorithms (Table II), the
// §IV-D extensions, and both baselines, so tests, benches, and examples
// can sweep the whole matrix uniformly.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/bfs_engine.hpp"
#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"

namespace optibfs {

/// Algorithm names:
///   sbfs      — serial reference
///   BFS_C     — centralized queue, locks
///   BFS_CL    — centralized queue, lock-free (optimistic)
///   BFS_DL    — decentralized pools, lock-free
///   BFS_W     — work-stealing, locks
///   BFS_WL    — work-stealing, lock-free
///   BFS_WS    — work-stealing + scale-free, locks
///   BFS_WSL   — work-stealing + scale-free, lock-free
///   *_H       — any engine-family name (BFS_C .. BFS_WSL) with
///               an `_H` suffix: the same engine with atomics-free
///               hybrid top-down/bottom-up direction switching
///               (direction_mode = kHybrid)
///   BFS_ASYNC — barrier-free asynchronous engine: relaxed d-choice
///               multiqueue + monotone packed-word settling
///               (core/bfs_async.hpp, DESIGN.md section 10)
///   PBFS      — Baseline1 (Leiserson-Schardl bag reducer)
///   HONG_QUEUE / HONG_READ / HONG_HYBRID / HONG_LOCAL_BITMAP — Baseline2
///   DO_BFS    — direction-optimizing (Beamer) extension baseline
///
/// Throws std::invalid_argument for unknown names. The returned engine
/// borrows `graph`; the graph must outlive it.
std::unique_ptr<ParallelBFS> make_bfs(std::string_view algorithm,
                                      const CsrGraph& graph,
                                      const BFSOptions& options);

/// Same, on a borrowed `team` whose width is the engine's (sbfs runs on
/// the caller and PBFS on its own work-stealing pool).
std::unique_ptr<ParallelBFS> make_bfs(std::string_view algorithm,
                                      const CsrGraph& graph,
                                      const BFSOptions& options,
                                      ThreadTeam& team);

/// All registered names, in canonical (paper-table) order.
std::vector<std::string> all_algorithms();

/// The paper's own algorithms (Table II rows excluding baselines).
std::vector<std::string> paper_algorithms();

/// The lock-free subset plotted in Figure 2.
std::vector<std::string> lockfree_algorithms();

/// Every hybrid-direction (`_H`) name the registry accepts.
std::vector<std::string> hybrid_algorithms();

/// The asynchronous (barrier-free) family (DESIGN.md section 10).
std::vector<std::string> async_algorithms();

/// Baseline names.
std::vector<std::string> baseline_algorithms();

}  // namespace optibfs
