// Optimistic vs atomic-RMW ablation for the beyond-BFS kernel suite
// (DESIGN.md section 11): CC / KCORE / MIS / PRDELTA against their
// `_RMW` twins, which run the identical edgemap schedule but pay an
// atomic read-modify-write at every update the optimistic variants
// handle with a plain relaxed store plus a quiescent repair pass.
//
// The paper's thesis, restated for kernels: on the monotone-update
// class, letting benign races happen and repairing at barriers beats
// paying per-edge atomicity. The table reports per-kernel best-of-reps
// runtime on three structural classes (scale-free rmat, power-law, 2-D
// mesh) and the summary counts how many kernels the optimistic
// discipline wins at the configured thread count.
//
// `--smoke` runs one tiny verified cell per kernel pair (ctest wiring).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "harness/timing.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/reference.hpp"

namespace {

using namespace optibfs;

constexpr std::uint64_t kSeed = 20130527;

/// Best-of-reps timing for one kernel on one graph. Verification (zoo
/// oracle per family) runs once, outside the timed reps.
ExperimentCell measure_kernel(const Workload& w, const std::string& name,
                              int threads, int reps, bool verify) {
  BFSOptions options;
  options.num_threads = threads;
  options.seed = kSeed;
  ExperimentCell cell;
  cell.graph = w.name;
  cell.algorithm = name;
  cell.threads = threads;
  cell.measurement.sources = reps;
  cell.measurement.min_ms = 0.0;
  double total = 0.0;
  kernels::KernelResult result;
  for (int rep = 0; rep < reps; ++rep) {
    result = {};
    Timer timer;
    kernels::make_kernel(name, w.graph, options)->run(result);
    const double ms = timer.elapsed_ms();
    total += ms;
    if (rep == 0 || ms < cell.measurement.min_ms) {
      cell.measurement.min_ms = ms;
    }
    cell.measurement.max_ms = std::max(cell.measurement.max_ms, ms);
  }
  cell.measurement.mean_ms = total / static_cast<double>(reps);
  cell.measurement.counters = result.counters;
  if (verify) {
    const CsrGraph& g = w.graph;
    bool ok = true;
    if (name == "CC" || name == "CC_RMW") {
      ok = result.labels == kernels::cc_reference(g);
    } else if (name == "KCORE" || name == "KCORE_RMW") {
      ok = result.core == kernels::kcore_reference(g);
    } else if (name == "MIS" || name == "MIS_RMW") {
      std::string why;
      ok = kernels::mis_validate(g, result.labels, &why);
    } else {
      const auto ref = kernels::pagerank_reference(g, options.pr_damping);
      const double bound = options.pr_epsilon *
                               static_cast<double>(g.num_vertices()) /
                               (1.0 - options.pr_damping) +
                           1e-12;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (std::abs(result.rank[v] - ref[v]) > bound) ok = false;
      }
    }
    if (!ok) {
      std::cerr << name << " failed verification on " << w.name << "\n";
      std::exit(1);
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "kernel suite: optimistic vs atomic-RMW",
      "extension beyond the paper: the optimistic discipline applied to "
      "CC / k-core / MIS / delta-PageRank (DESIGN.md section 11)");

  const int threads = smoke ? 2 : env_threads(8);
  const int reps = smoke ? 1 : 3;
  const bool verify = smoke || env_verify();

  std::vector<Workload> graphs;
  graphs.push_back(
      {"rmat_scale_free", "Graph500 rmat: hub-contended labels/degrees",
       CsrGraph::from_edges(gen::rmat(smoke ? 10 : 14, 16, kSeed))});
  graphs.push_back(
      {"power_law", "configuration-model power law (gamma 2.2)",
       CsrGraph::from_edges(gen::power_law(smoke ? 2000 : 60000,
                                           smoke ? 12000 : 480000, 2.2,
                                           kSeed))});
  {
    const vid_t side = smoke ? 40 : 300;
    graphs.push_back({"grid_mesh", "2-D mesh: no hubs, long convergence",
                      CsrGraph::from_edges(gen::grid2d(side, side))});
  }
  for (const Workload& w : graphs) bench::print_workload_line(w);
  std::cout << "\n";

  std::vector<ExperimentCell> cells;
  // Per (kernel, graph) optimistic-vs-RMW speedup; the summary reduces
  // each kernel over graphs by harmonic mean (HM punishes a regression
  // on any one class harder than an arithmetic mean hides it).
  struct PairRow {
    std::string kernel, graph;
    double opt_ms = 0.0, rmw_ms = 0.0;
    std::uint64_t rmw_ops = 0;
  };
  std::vector<PairRow> pairs;
  for (const Workload& w : graphs) {
    for (const std::string& kernel : kernels::optimistic_kernels()) {
      const ExperimentCell opt =
          measure_kernel(w, kernel, threads, reps, verify);
      const ExperimentCell rmw =
          measure_kernel(w, kernel + "_RMW", threads, reps, verify);
      PairRow row;
      row.kernel = kernel;
      row.graph = w.name;
      row.opt_ms = opt.measurement.min_ms;
      row.rmw_ms = rmw.measurement.min_ms;
      row.rmw_ops = rmw.measurement.counters[telemetry::kKernelRmwOps];
      pairs.push_back(row);
      cells.push_back(opt);
      cells.push_back(rmw);
    }
  }

  Table table(
      {"graph", "kernel", "optimistic_ms", "rmw_ms", "speedup", "rmw_ops"});
  for (const PairRow& row : pairs) {
    const std::size_t r = table.add_row();
    table.set(r, 0, row.graph);
    table.set(r, 1, row.kernel);
    table.set(r, 2, row.opt_ms, 3);
    table.set(r, 3, row.rmw_ms, 3);
    table.set(r, 4, row.rmw_ms / std::max(row.opt_ms, 1e-9), 2);
    table.set(r, 5, row.rmw_ops);
  }
  table.print(std::cout);
  std::cout << "\n";

  int optimistic_wins = 0;
  std::string per_kernel = "[";
  for (std::size_t k = 0; k < kernels::optimistic_kernels().size(); ++k) {
    const std::string& kernel = kernels::optimistic_kernels()[k];
    double inv_sum = 0.0;
    int count = 0;
    for (const PairRow& row : pairs) {
      if (row.kernel != kernel) continue;
      inv_sum += row.opt_ms / std::max(row.rmw_ms, 1e-9);
      ++count;
    }
    const double hm_speedup =
        inv_sum <= 0.0 ? 0.0 : static_cast<double>(count) / inv_sum;
    if (hm_speedup > 1.0) ++optimistic_wins;
    std::cout << kernel << ": HM optimistic-vs-RMW speedup "
              << hm_speedup << "x — "
              << (hm_speedup > 1.0 ? "optimistic wins" : "RMW wins") << "\n";
    per_kernel += std::string(k == 0 ? "" : ", ") + "{\"kernel\": \"" +
                  kernel +
                  "\", \"hm_speedup\": " + std::to_string(hm_speedup) + "}";
  }
  per_kernel += "]";
  std::cout << "optimistic discipline wins " << optimistic_wins << "/"
            << kernels::optimistic_kernels().size() << " kernels at "
            << threads << " threads\n";

  const std::string summary =
      "{\"threads\": " + std::to_string(threads) +
      ", \"optimistic_wins\": " + std::to_string(optimistic_wins) +
      ", \"kernels\": " + std::to_string(kernels::optimistic_kernels().size()) +
      ", \"per_kernel\": " + per_kernel + "}";
  const bool wrote =
      bench::maybe_write_json("kernels", argc, argv, cells, summary);
  return wrote ? 0 : 1;
}
