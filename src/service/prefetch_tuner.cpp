#include "service/prefetch_tuner.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "harness/source_sampler.hpp"
#include "harness/timing.hpp"
#include "kernels/kernel_registry.hpp"

namespace optibfs {
namespace {

constexpr std::array<int, 4> kCandidates{0, 4, 8, 16};

/// Times every candidate with `time_candidate(opts)` (which returns the
/// candidate's best-of-reps milliseconds) and returns the fastest
/// distance. Ties break toward the earlier (shorter) candidate — less
/// speculative traffic for the same time.
template <class TimeFn>
int probe_best(const BFSOptions& base, TimeFn&& time_candidate) {
  int best = 0;
  double best_ms = -1.0;
  for (const int candidate : kCandidates) {
    BFSOptions opts = base;
    opts.prefetch_distance = candidate;
    const double ms = time_candidate(opts);
    if (best_ms < 0.0 || ms < best_ms) {
      best_ms = ms;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

PrefetchPlan tune_prefetch(const CsrGraph& graph, const BFSOptions& base,
                           const std::string& single_source_engine,
                           int num_threads) {
  PrefetchPlan plan;
  plan.single_source = {base.prefetch_distance, false};
  plan.wave = {base.prefetch_distance, false};
  plan.kernel = {base.prefetch_distance, false};
  if (graph.num_vertices() < kPrefetchProbeMinVertices) return plan;

  TeamHandle probe_team(num_threads, base.pin_threads);
  ThreadTeam& team = probe_team.get();
  constexpr int kReps = 2;  // best-of: absorbs one cold-cache outlier

  // Single-source family: the graph's actual batch-of-1 engine, one
  // sampled source (the original probe, over the widened candidates).
  const vid_t source = sample_sources(graph, 1, base.seed).front();
  BFSResult scratch;
  plan.single_source.distance =
      probe_best(base, [&](const BFSOptions& opts) {
        const auto engine = make_bfs(single_source_engine, graph, opts, team);
        double best = -1.0;
        for (int rep = 0; rep < kReps; ++rep) {
          Timer timer;
          engine->run(source, scratch);
          best = best < 0.0 ? timer.elapsed_ms()
                            : std::min(best, timer.elapsed_ms());
        }
        return best;
      });
  plan.single_source.probed = true;

  // Wave family: an 8-source MS-BFS wave under the service's hybrid
  // wave configuration. The hot probe array here is the seen_/visit_
  // mask words, whose prefetch profile need not match level[]'s.
  const std::vector<vid_t> wave_sources =
      sample_sources(graph, 8, base.seed + 1);
  MsBfsResult wave_scratch;
  plan.wave.distance = probe_best(base, [&](const BFSOptions& opts) {
    BFSOptions wave_opts = opts;
    wave_opts.direction_mode = DirectionMode::kHybrid;
    MsBfsSession session(graph, wave_opts, team);
    double best = -1.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      session.run(wave_sources, wave_scratch);
      best = best < 0.0 ? timer.elapsed_ms()
                        : std::min(best, timer.elapsed_ms());
    }
    return best;
  });
  plan.wave.probed = true;

  // Kernel family: one CC run per candidate (the kernel the memo runs
  // most and the one whose label-chase is most level[]-like; k-core
  // and delta-PageRank share the substrate's lookahead).
  kernels::KernelResult kernel_scratch;
  plan.kernel.distance = probe_best(base, [&](const BFSOptions& opts) {
    const auto kernel = kernels::make_kernel("CC", graph, opts, team);
    double best = -1.0;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      kernel->run(kernel_scratch);
      best = best < 0.0 ? timer.elapsed_ms()
                        : std::min(best, timer.elapsed_ms());
    }
    return best;
  });
  plan.kernel.probed = true;

  return plan;
}

}  // namespace optibfs
