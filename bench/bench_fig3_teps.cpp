// Figure 3: performance in traversed edges per second (TEPS) on the
// real-world graphs, per algorithm.
//
// Paper: Figure 3(a) on Lonestar, 3(b) on Trestles, bars grouped by
// graph for Baseline1, Baseline2, and our locked/lock-free variants.
// We print the same grouping: rows = algorithms, columns = the suite's
// real-world-class graphs plus the RMAT stand-in, values in MTEPS
// (Graph500 convention: edges of the traversed component / time —
// duplicate scans don't count). Beyond the paper, the hybrid (`*_H`)
// direction-optimizing variants are included and their harmonic-mean
// speedup over the top-down engines on the scale-free subset is
// summarized (and recorded in the JSON output).
#include <iostream>
#include <map>
#include <sstream>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "harness/json_writer.hpp"

namespace {

using namespace optibfs;

/// Harmonic mean of `algorithm`'s TEPS over the graphs in `subset`
/// (the right mean for rates; 0 when any cell is missing or zero).
double harmonic_mean_teps(const std::vector<ExperimentCell>& cells,
                          const std::string& algorithm,
                          const std::vector<std::string>& subset) {
  double denom = 0.0;
  std::size_t found = 0;
  for (const ExperimentCell& cell : cells) {
    if (cell.algorithm != algorithm) continue;
    for (const std::string& graph : subset) {
      if (cell.graph != graph) continue;
      if (cell.measurement.mean_teps <= 0.0) return 0.0;
      denom += 1.0 / cell.measurement.mean_teps;
      ++found;
    }
  }
  if (found != subset.size() || denom <= 0.0) return 0.0;
  return static_cast<double>(found) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Traversed edges per second on real-world graphs",
                      "Figure 3(a)/(b)");

  const WorkloadConfig wconfig = workload_config_from_env();
  std::vector<Workload> workloads;
  for (const char* name : {"cage15", "cage14", "freescale", "wikipedia",
                           "kkt_power", "rmat_sparse", "rmat_dense"}) {
    workloads.push_back(make_workload(name, wconfig));
    bench::print_workload_line(workloads.back());
  }
  std::cout << '\n';

  ExperimentConfig config = bench::default_config();
  config.algorithms = {"sbfs",     "BFS_C",    "BFS_CL",   "BFS_DL",
                       "BFS_W",    "BFS_WL",   "BFS_WS",   "BFS_WSL",
                       "BFS_CL_H", "BFS_DL_H", "BFS_WL_H", "BFS_WSL_H",
                       "PBFS",     "HONG_LOCAL_BITMAP"};
  const auto cells = run_experiment(workloads, config);

  std::vector<std::string> header{"Algorithm (MTEPS)"};
  for (const Workload& w : workloads) header.push_back(w.name);
  Table table(header);
  std::map<std::string, std::size_t> row_of;
  for (const auto& cell : cells) {
    if (row_of.find(cell.algorithm) == row_of.end()) {
      const std::size_t row = table.add_row();
      table.set(row, 0, cell.algorithm);
      row_of[cell.algorithm] = row;
    }
    for (std::size_t c = 0; c < workloads.size(); ++c) {
      if (workloads[c].name == cell.graph) {
        table.set(row_of[cell.algorithm], c + 1,
                  cell.measurement.mean_teps / 1e6, 2);
      }
    }
  }
  table.print(std::cout);

  // Hybrid vs. top-down on the scale-free / low-diameter subset — the
  // workloads where direction optimization pays (high-diameter meshes
  // like the cages never leave top-down and should only tie).
  const std::vector<std::string> scale_free{"wikipedia", "rmat_sparse",
                                            "rmat_dense"};
  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("scale_free_graphs").begin_array();
  for (const std::string& graph : scale_free) sw.value(graph);
  sw.end_array();
  sw.key("hybrid_speedup").begin_object();
  std::cout << "\nHybrid direction optimization, harmonic-mean TEPS over"
               " the scale-free subset:\n";
  for (const char* base : {"BFS_CL", "BFS_DL", "BFS_WL", "BFS_WSL"}) {
    const std::string hybrid = std::string(base) + "_H";
    const double td = harmonic_mean_teps(cells, base, scale_free);
    const double h = harmonic_mean_teps(cells, hybrid, scale_free);
    const double speedup = td > 0.0 ? h / td : 0.0;
    std::cout << "  " << hybrid << ": " << h / 1e6 << " MTEPS vs " << base
              << " " << td / 1e6 << " MTEPS  ->  " << speedup << "x\n";
    sw.key(hybrid).value(speedup);
  }
  sw.end_object();
  sw.end_object();

  std::cout << "\nPaper shape: our best lock-free variant posts the top "
               "TEPS on every real-world graph, with the largest margin "
               "on the scale-free wikipedia graph (hotspot splitting); "
               "the _H hybrids pull further ahead wherever the frontier "
               "ever covers a big fraction of the graph.\n";

  const bool wrote =
      bench::maybe_write_json("fig3", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
