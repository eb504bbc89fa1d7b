// Traced-run layer replay. The services call MsBfsSession::run,
// make_bfs(...)->run, finalize_levels_query, DynamicGraph::apply,
// IncrementalBfsEngine::repair/recompute and make_kernel(...)->run on
// their own threads, where the benchmark cannot wrap them; a traced run
// therefore replays the workload's own inputs through those public
// entry points under spans, one layer at a time.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "ledger.hpp"
#include "scaleout/scaleout_service.hpp"
#include "service/bfs_service.hpp"

namespace perfbench {

struct ReplayInput {
  const optibfs::EdgeList* edges = nullptr;  ///< the primary graph's input
  std::shared_ptr<const optibfs::CsrGraph> graph;  ///< its CSR, original ids
  /// Binary CSR of `graph`; written to `scratch_path` when empty.
  std::string binary_path;
  std::string scratch_path;
  /// The serving configuration the workload's service resolved.
  optibfs::ServiceStats resolved;
  std::vector<vid_t> sources;  ///< the workload's first 64 stream sources
  std::vector<std::pair<vid_t, vid_t>> path_pairs;
  /// Snapshot the kernels run on (the last round's, or the primary).
  std::shared_ptr<const optibfs::CsrGraph> kernel_graph;
  std::uint64_t seed = 1;
};

/// Adds graph.*, storage.load_ms, msbfs.*, engine.*, runtime.barrier_spins,
/// finalize.path_us, dynamic.apply_ms/repair_ms, scaleout.recompute_ms and
/// kernel.* (except recomputes_per_round) to `out`.
void replay_layers(const ReplayInput& in, Tracer& tr, Outcome& out);

/// Service-tier metrics from a BfsService's stats and the tracer's
/// register / submit / update spans.
void add_service_metrics(const optibfs::ServiceStats& s, const Tracer& tr,
                         Outcome& out);

/// Scale-out-tier metrics from a ScaleoutService's stats.
void add_scaleout_metrics(const optibfs::scaleout::ScaleoutStats& s,
                          const Tracer& tr, Outcome& out);

/// The scale-out tier, which no workload serves through, probed so its
/// metrics exist on every workload: 64 of the workload's stream queries,
/// four watched pairs and two update batches that shortcut them, through
/// a ScaleoutService of 2 replicas x 1 thread holding `graph` as its one
/// tenant. Returns the probe service's stats; false on a stall.
bool scaleout_probe(std::shared_ptr<const optibfs::CsrGraph> graph,
                    const std::vector<vid_t>& sources, std::uint64_t seed,
                    Tracer& tr, optibfs::scaleout::ScaleoutStats& stats);

}  // namespace perfbench
