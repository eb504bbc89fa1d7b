#include "core/registry.hpp"

#include <stdexcept>

#include "baselines/direction_optimizing.hpp"
#include "baselines/hong_bfs.hpp"
#include "baselines/pbfs.hpp"
#include "core/bfs_async.hpp"
#include "core/bfs_centralized.hpp"
#include "core/bfs_serial.hpp"
#include "core/bfs_workstealing.hpp"

namespace optibfs {
namespace {

/// Adapter presenting the serial reference through the common interface.
class SerialBFSEngine final : public ParallelBFS {
 public:
  SerialBFSEngine(const CsrGraph& graph, BFSOptions opts)
      : graph_(graph), opts_(opts) {
    opts_.num_threads = 1;
  }

  void run(vid_t source, BFSResult& out) override {
    bfs_serial(graph_, source, out);
  }
  std::string_view name() const override { return "sbfs"; }
  const BFSOptions& options() const override { return opts_; }

 private:
  const CsrGraph& graph_;
  BFSOptions opts_;
};

std::unique_ptr<ParallelBFS> make_engine(std::string_view algorithm,
                                         const CsrGraph& graph,
                                         const BFSOptions& options,
                                         ThreadTeam* borrowed) {
  // `_H` suffix: the same optimistic engine with direction_mode forced
  // to kHybrid (the engine base appends the suffix to its name, so the
  // name round-trips). Restricted to the engine-base family — the
  // serial reference and the external baselines have no hybrid mode.
  if (algorithm.size() > 2 &&
      algorithm.substr(algorithm.size() - 2) == "_H") {
    const std::string_view base = algorithm.substr(0, algorithm.size() - 2);
    for (const std::string_view eligible :
         {"BFS_C", "BFS_CL", "BFS_DL", "BFS_W", "BFS_WL", "BFS_WS",
          "BFS_WSL"}) {
      if (base == eligible) {
        BFSOptions hybrid = options;
        hybrid.direction_mode = DirectionMode::kHybrid;
        return make_engine(base, graph, hybrid, borrowed);
      }
    }
  }
  // A team-run engine's team: the borrowed one, or its own (sbfs runs
  // on the caller and PBFS on its pool, so neither starts a team).
  const auto team = [&] {
    return borrowed != nullptr
               ? TeamHandle(*borrowed)
               : TeamHandle(options.num_threads, options.pin_threads);
  };
  if (algorithm == "sbfs") {
    return std::make_unique<SerialBFSEngine>(graph, options);
  }
  if (algorithm == "BFS_C") {
    return std::make_unique<CentralizedBFS>(graph, options, team());
  }
  if (algorithm == "BFS_CL") {
    return std::make_unique<CentralizedLockfreeBFS>(graph, options, team());
  }
  if (algorithm == "BFS_DL") {
    return std::make_unique<DecentralizedLockfreeBFS>(graph, options, team());
  }
  if (algorithm == "BFS_W" || algorithm == "BFS_WL" || algorithm == "BFS_WS" ||
      algorithm == "BFS_WSL") {
    return std::make_unique<WorkStealingBFS>(
        graph, options, team(),
        /*use_locks=*/algorithm == "BFS_W" || algorithm == "BFS_WS",
        /*scale_free_mode=*/algorithm == "BFS_WS" || algorithm == "BFS_WSL");
  }
  if (algorithm == "BFS_ASYNC") {
    return std::make_unique<AsyncBFS>(graph, options, team());
  }
  if (algorithm == "PBFS") {
    return std::make_unique<PBFS>(graph, options);
  }
  for (const HongVariant variant :
       {HongVariant::kQueue, HongVariant::kRead, HongVariant::kHybrid,
        HongVariant::kHybridBitmap}) {
    if (algorithm == hong_variant_name(variant)) {
      return std::make_unique<HongBFS>(graph, options, variant, team());
    }
  }
  if (algorithm == "DO_BFS") {
    return std::make_unique<DirectionOptimizingBFS>(graph, options, team());
  }
  throw std::invalid_argument("make_bfs: unknown algorithm '" +
                              std::string(algorithm) + "'");
}

}  // namespace

std::unique_ptr<ParallelBFS> make_bfs(std::string_view algorithm,
                                      const CsrGraph& graph,
                                      const BFSOptions& options) {
  return make_engine(algorithm, graph, options, nullptr);
}

std::unique_ptr<ParallelBFS> make_bfs(std::string_view algorithm,
                                      const CsrGraph& graph,
                                      const BFSOptions& options,
                                      ThreadTeam& team) {
  BFSOptions on_team = options;
  on_team.num_threads = team.num_threads();
  return make_engine(algorithm, graph, on_team, &team);
}

std::vector<std::string> all_algorithms() {
  return {"sbfs",      "BFS_C",     "BFS_CL",      "BFS_DL",
          "BFS_W",     "BFS_WL",    "BFS_WS",      "BFS_WSL",
          "BFS_CL_H",  "BFS_DL_H",  "BFS_WL_H",    "BFS_WSL_H",
          "BFS_ASYNC", "PBFS",      "HONG_QUEUE",  "HONG_READ",
          "HONG_HYBRID", "HONG_LOCAL_BITMAP", "DO_BFS"};
}

std::vector<std::string> async_algorithms() { return {"BFS_ASYNC"}; }

std::vector<std::string> paper_algorithms() {
  return {"BFS_C", "BFS_CL", "BFS_DL", "BFS_W",
          "BFS_WL", "BFS_WS", "BFS_WSL"};
}

std::vector<std::string> lockfree_algorithms() {
  return {"BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"};
}

std::vector<std::string> hybrid_algorithms() {
  return {"BFS_C_H", "BFS_CL_H", "BFS_DL_H", "BFS_W_H",
          "BFS_WL_H", "BFS_WS_H", "BFS_WSL_H"};
}

std::vector<std::string> baseline_algorithms() {
  return {"PBFS", "HONG_QUEUE", "HONG_READ", "HONG_HYBRID",
          "HONG_LOCAL_BITMAP"};
}

}  // namespace optibfs
