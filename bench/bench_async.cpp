// Strict vs relaxed engine families: where does the barrier-free
// asynchronous engine (BFS_ASYNC, DESIGN.md section 10) overtake the
// level-synchronous ones?
//
// Three sweeps:
//   1. engine comparison — BFS_CL / BFS_CL_H / BFS_WSL_H vs BFS_ASYNC
//      on three structural classes: low-diameter rmat (barriers are
//      cheap: few levels), mid-diameter grid, and high-diameter
//      chordpath (road-like; barriers x diameter dominate the strict
//      engines).
//   2. async shape ablation — subqueues-per-thread k x batch size B on
//      the high-diameter graph.
//   3. crossover ablation — chordpath size ramp, async vs the best
//      strict engine per size, locating where the families cross.
//
// The headline metric is HM-TEPS (harmonic-mean TEPS). All measured
// graphs here are connected, so every source traverses the same edge
// set and HM-TEPS collapses to component_edges / mean_seconds — which
// is how the summary computes it from the cell aggregates.
//
// `--smoke` runs a tiny verified pass of every sweep (ctest wiring).
#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "harness/source_sampler.hpp"
#include "harness/timing.hpp"

namespace {

using namespace optibfs;

constexpr std::uint64_t kSeed = 20130527;

/// HM-TEPS for a connected-graph cell: every run covers all m edges,
/// so the harmonic mean of per-run TEPS is m / mean_seconds.
double hm_teps(const ExperimentCell& cell, std::uint64_t edges) {
  return cell.measurement.mean_ms <= 0.0
             ? 0.0
             : static_cast<double>(edges) /
                   (cell.measurement.mean_ms / 1e3);
}

ExperimentCell measure_cell(const Workload& w, const std::string& algorithm,
                            const std::string& label, BFSOptions options,
                            int threads, const std::vector<vid_t>& sources,
                            bool verify) {
  options.num_threads = threads;
  auto engine = make_bfs(algorithm, w.graph, options);
  ExperimentCell cell;
  cell.graph = w.name;
  cell.algorithm = label;
  cell.threads = threads;
  cell.measurement = measure_bfs(*engine, w.graph, sources, verify);
  return cell;
}

void print_cells(const std::string& title,
                 const std::vector<ExperimentCell>& cells,
                 const std::vector<Workload>& graphs) {
  std::cout << title << "\n";
  Table table({"graph", "engine", "mean_ms", "hm_mteps"});
  for (const ExperimentCell& cell : cells) {
    std::uint64_t edges = 0;
    for (const Workload& w : graphs) {
      if (w.name == cell.graph) edges = w.graph.num_edges();
    }
    const std::size_t r = table.add_row();
    table.set(r, 0, cell.graph);
    table.set(r, 1, cell.algorithm);
    table.set(r, 2, cell.measurement.mean_ms, 3);
    table.set(r, 3, hm_teps(cell, edges) / 1e6, 2);
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "async engine-family crossover",
      "extension beyond the paper: barrier-free asynchronous BFS "
      "(DESIGN.md section 10.5)");

  const int threads = smoke ? 2 : env_threads(8);
  const int sources = smoke ? 1 : env_sources(4);
  const bool verify = smoke || env_verify();
  const std::vector<std::string> strict = {"BFS_CL", "BFS_CL_H", "BFS_WSL_H"};

  // ---- sweep 1: engine comparison across structural classes ----
  std::vector<Workload> graphs;
  graphs.push_back(
      {"rmat_low_diam", "Graph500 rmat: a handful of huge levels",
       CsrGraph::from_edges(gen::rmat(smoke ? 10 : 14, 16, kSeed))});
  {
    const vid_t side = smoke ? 40 : 300;
    graphs.push_back(
        {"grid_mid_diam", "2-D mesh: diameter ~2*side",
         CsrGraph::from_edges(gen::grid2d(side, side))});
  }
  {
    const vid_t n = smoke ? 2000 : 40000;
    graphs.push_back(
        {"chordpath_high_diam",
         "road-like path with bounded-span chords: diameter ~n/span",
         CsrGraph::from_edges(gen::path_with_chords(n, n / 5, 8, kSeed))});
  }
  for (const Workload& w : graphs) bench::print_workload_line(w);
  std::cout << "\n";

  std::vector<ExperimentCell> cells;
  for (const Workload& w : graphs) {
    const auto srcs = sample_sources(w.graph, sources, kSeed);
    for (const std::string& algorithm : strict) {
      cells.push_back(measure_cell(w, algorithm, algorithm, {}, threads,
                                   srcs, verify));
    }
    cells.push_back(
        measure_cell(w, "BFS_ASYNC", "BFS_ASYNC", {}, threads, srcs, verify));
  }
  print_cells("engine comparison (" + std::to_string(threads) + " threads):",
              cells, graphs);

  // ---- sweep 2: async shape ablation (k x B) on the hard class ----
  {
    const Workload& hard = graphs.back();
    const auto srcs = sample_sources(hard.graph, sources, kSeed);
    std::vector<ExperimentCell> shape_cells;
    for (const int k : std::vector<int>{1, 2, 4}) {
      for (const int batch : std::vector<int>{16, 64, 256}) {
        BFSOptions options;
        options.async_subqueues = k;
        options.async_batch_size = batch;
        shape_cells.push_back(measure_cell(
            hard, "BFS_ASYNC",
            "BFS_ASYNC k=" + std::to_string(k) + " B=" +
                std::to_string(batch),
            options, threads, srcs, verify));
      }
    }
    print_cells("async shape ablation (subqueues k x batch B):",
                shape_cells, graphs);
    cells.insert(cells.end(), shape_cells.begin(), shape_cells.end());
  }

  // ---- sweep 3: crossover ramp — async vs best strict per size ----
  std::vector<Workload> ramp;
  for (const vid_t n : smoke ? std::vector<vid_t>{300, 1200}
                             : std::vector<vid_t>{1000, 4000, 16000, 64000}) {
    ramp.push_back(
        {"chordpath_" + std::to_string(n), "crossover ramp point",
         CsrGraph::from_edges(gen::path_with_chords(n, n / 5, 8, kSeed))});
  }
  std::vector<ExperimentCell> ramp_cells;
  std::string crossover_summary = "[";
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    const Workload& w = ramp[i];
    const auto srcs = sample_sources(w.graph, sources, kSeed);
    const ExperimentCell async_cell =
        measure_cell(w, "BFS_ASYNC", "BFS_ASYNC", {}, threads, srcs, verify);
    ExperimentCell best_strict;
    for (const std::string& algorithm : strict) {
      ExperimentCell cell = measure_cell(w, algorithm, algorithm, {},
                                         threads, srcs, verify);
      if (best_strict.algorithm.empty() ||
          cell.measurement.mean_ms < best_strict.measurement.mean_ms) {
        best_strict = cell;
      }
      ramp_cells.push_back(std::move(cell));
    }
    ramp_cells.push_back(async_cell);
    crossover_summary +=
        std::string(i == 0 ? "" : ", ") + "{\"n\": " +
        std::to_string(w.graph.num_vertices()) +
        ", \"async_ms\": " + std::to_string(async_cell.measurement.mean_ms) +
        ", \"best_strict\": \"" + best_strict.algorithm +
        "\", \"best_strict_ms\": " +
        std::to_string(best_strict.measurement.mean_ms) + ", \"speedup\": " +
        std::to_string(best_strict.measurement.mean_ms /
                       std::max(async_cell.measurement.mean_ms, 1e-9)) +
        "}";
  }
  crossover_summary += "]";
  print_cells("crossover ramp (async vs strict by chordpath size):",
              ramp_cells, ramp);
  cells.insert(cells.end(), ramp_cells.begin(), ramp_cells.end());

  // ---- headline: HM-TEPS on the high-diameter class ----
  const Workload& hard = graphs.back();
  double async_hm = 0.0, best_strict_hm = 0.0;
  std::string best_strict_name;
  for (const ExperimentCell& cell : cells) {
    if (cell.graph != hard.name) continue;
    const double hm = hm_teps(cell, hard.graph.num_edges());
    if (cell.algorithm == "BFS_ASYNC") {
      async_hm = hm;
    } else if (std::find(strict.begin(), strict.end(), cell.algorithm) !=
                   strict.end() &&
               hm > best_strict_hm) {
      best_strict_hm = hm;
      best_strict_name = cell.algorithm;
    }
  }
  std::cout << "high-diameter HM-TEPS: BFS_ASYNC "
            << async_hm / 1e6 << " MTEPS vs best strict ("
            << best_strict_name << ") " << best_strict_hm / 1e6
            << " MTEPS — "
            << (async_hm > best_strict_hm ? "async wins" : "strict wins")
            << " at " << threads << " threads\n";

  const std::string summary =
      "{\"high_diameter_graph\": \"" + hard.name +
      "\", \"threads\": " + std::to_string(threads) +
      ", \"async_hm_teps\": " + std::to_string(async_hm) +
      ", \"best_strict\": \"" + best_strict_name +
      "\", \"best_strict_hm_teps\": " + std::to_string(best_strict_hm) +
      ", \"async_wins\": " + (async_hm > best_strict_hm ? "true" : "false") +
      ", \"crossover\": " + crossover_summary + "}";
  const bool wrote =
      bench::maybe_write_json("async", argc, argv, cells, summary);
  return wrote ? 0 : 1;
}
