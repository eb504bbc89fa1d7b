// Mini Graph500 run (the paper cites BFS as "a graph benchmark
// application for ranking supercomputers" [3,4]): the official protocol
// — RMAT construction, validated searches from random sources, TEPS
// order statistics with the harmonic-mean aggregate — for a choice of
// engines.
//
//   ./graph500_mini [scale] [threads] [sources]
#include <cstdlib>
#include <iostream>

#include "checked_args.hpp"
#include "harness/graph500.hpp"
#include "harness/table.hpp"
#include "optibfs.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  using examples::positional;
  Graph500Config config;
  config.scale = positional(argc, argv, 1, "scale", 15, 1);
  config.bfs.num_threads = positional(argc, argv, 2, "threads", 4, 1);
  config.num_sources = positional(argc, argv, 3, "sources", 8, 1);

  std::cout << "Graph500-mini: RMAT scale " << config.scale
            << ", edge factor " << config.edge_factor << ", "
            << config.num_sources << " validated sources, "
            << config.bfs.num_threads << " threads\n\n";

  Table table({"Algorithm", "harmonic TEPS", "median TEPS", "min", "max",
               "mean ms", "valid"});
  for (const char* name :
       {"sbfs", "BFS_CL", "BFS_WL", "BFS_WSL", "PBFS", "HONG_LOCAL_BITMAP",
        "DO_BFS"}) {
    config.algorithm = name;
    const Graph500Result result = run_graph500(config);
    if (!result.all_validated) {
      std::cerr << name << " FAILED validation: " << result.first_error
                << "\n";
      return 1;
    }
    double mean_ms = 0;
    for (const double ms : result.time_ms) mean_ms += ms;
    if (!result.time_ms.empty()) {
      mean_ms /= static_cast<double>(result.time_ms.size());
    }
    const std::size_t row = table.add_row();
    table.set(row, 0, name);
    table.set(row, 1, human_count(result.teps_stats.harmonic_mean));
    table.set(row, 2, human_count(result.teps_stats.median));
    table.set(row, 3, human_count(result.teps_stats.min));
    table.set(row, 4, human_count(result.teps_stats.max));
    table.set(row, 5, mean_ms, 2);
    table.set(row, 6, "yes");
  }
  const Graph500Result sample = [&] {
    config.algorithm = "sbfs";
    return run_graph500(config);
  }();
  std::cout << "graph: n=" << sample.num_vertices
            << " m=" << sample.num_edges << ", construction "
            << sample.construction_seconds << " s\n\n";
  table.print(std::cout);
  std::cout << "\nEvery search above was validated Graph500-style "
               "against the serial oracle before entering the "
               "statistics.\n";
  return 0;
}
