// Degrees-of-separation analysis on a synthetic social network —
// the scale-free workload the paper's introduction motivates.
//
// Builds a power-law (Chung-Lu) "follower" graph and answers "how far
// is everyone from these seed users?" the way the query service does:
// all seeds go into ONE optimistic MS-BFS wave on one persistent
// thread team, so the traversals share their adjacency scans instead
// of paying a full BFS (and a thread create/join) per seed. The report
// is the classic "six degrees" hop-distance curve.
//
//   ./social_network_hops [users] [follows] [threads]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "checked_args.hpp"
#include "optibfs.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  using examples::positional;
  const vid_t users = positional<vid_t>(argc, argv, 1, "users", 200000, 1);
  const eid_t follows =
      positional<eid_t>(argc, argv, 2, "follows", 2500000, 0);
  const int threads = positional(argc, argv, 3, "threads", 4, 1);

  std::cout << "Building a scale-free social graph: " << users << " users, "
            << follows << " follow edges (gamma=2.1)...\n";
  const CsrGraph graph = CsrGraph::from_edges(
      gen::power_law(users, follows, 2.1, /*seed=*/8675309));
  const DegreeStats stats = degree_stats(graph);
  std::cout << "  max followers of one user: " << stats.max
            << " (mean " << std::fixed << std::setprecision(1) << stats.mean
            << ") — the hotspot problem the scale-free variants target\n\n";

  BFSOptions options;
  options.num_threads = threads;

  // One team + one session answer every seed: the session keeps its
  // mask arrays and queue pool across waves, the team keeps its
  // workers, and the wave shares adjacency scans across all 8 seeds.
  ThreadTeam team(threads);
  MsBfsSession session(graph, options, team);

  const auto seeds = sample_sources(graph, 8, /*seed=*/4);
  Timer timer;
  const MsBfsResult batch = session.run(seeds);
  const double wave_ms = timer.elapsed_ms();

  std::vector<std::uint64_t> hop_histogram;
  std::uint64_t reached_total = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    reached_total += batch.vertices_explored[s];
    for (vid_t v = 0; v < graph.num_vertices(); ++v) {
      const level_t hops = batch.distance_of(static_cast<int>(s), v);
      if (hops == kUnvisited) continue;
      if (hop_histogram.size() <= static_cast<std::size_t>(hops)) {
        hop_histogram.resize(static_cast<std::size_t>(hops) + 1, 0);
      }
      ++hop_histogram[static_cast<std::size_t>(hops)];
    }
  }

  std::cout << "Analyzed " << seeds.size() << " seed users in one "
            << wave_ms << " ms MS-BFS wave; mean reachable set: "
            << reached_total / seeds.size() << " users\n\n";

  std::cout << "Degrees of separation (aggregated over seeds):\n";
  std::uint64_t peak = 1;
  for (const auto count : hop_histogram) peak = std::max(peak, count);
  for (std::size_t hop = 0; hop < hop_histogram.size(); ++hop) {
    const int bar_width =
        static_cast<int>(50.0 * static_cast<double>(hop_histogram[hop]) /
                         static_cast<double>(peak));
    std::cout << "  " << std::setw(2) << hop << " hops | "
              << std::string(static_cast<std::size_t>(bar_width), '#') << ' '
              << hop_histogram[hop] << '\n';
  }

  std::cout << "\nMost users sit within a handful of hops — the "
               "low-diameter, hotspot-heavy regime where batching "
               "overlapping traversals into one wave earns its keep.\n";
  return 0;
}
