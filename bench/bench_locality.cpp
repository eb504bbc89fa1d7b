// Locality-layer ablation: vertex reordering x software prefetch x
// word-scan bottom-up (DESIGN.md §3.1a), on the hybrid engine.
//
// Not a paper artifact — this sweeps the PR-4 locality subsystem over
// the scale-free workloads (the suite members whose skewed degree
// distributions and low diameter make cache behaviour the bottleneck).
// The baseline cell (reorder=none, prefetch off, word-scan off) is the
// PR-3 configuration of BFS_CL_H; every other cell turns exactly the
// knobs its label names, so the JSON doubles as the ablation record:
//
//   * reorder: CsrGraph::reorder preprocessing (degree_sort /
//     hub_cluster). Sources stay in original IDs — the engine remaps.
//   * pf: BFSOptions::prefetch_distance for the neighbor scans.
//   * ws: BFSOptions::bottom_up_word_scan — the 64-vertices-per-word
//     frontier/unvisited summary bitmaps in the bottom-up step.
//
// The summary records each config's harmonic-mean TEPS over the subset
// and its speedup against the baseline cell (acceptance target for the
// best config: >= 1.3x at 8 threads).
//
// `--smoke` runs a tiny two-cell verified sweep (ctest wiring).
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"

namespace {

using namespace optibfs;

constexpr const char* kEngine = "BFS_CL_H";

struct LocalityConfig {
  ReorderPolicy reorder = ReorderPolicy::kNone;
  int prefetch = 0;
  bool word_scan = false;

  std::string label() const {
    std::ostringstream out;
    out << reorder_policy_name(reorder) << "/pf" << prefetch << "/ws"
        << (word_scan ? 1 : 0);
    return out.str();
  }
};

/// Harmonic mean of a config's TEPS over `subset` (the right mean for
/// rates; 0 when any cell is missing or zero).
double harmonic_mean_teps(const std::vector<ExperimentCell>& cells,
                          const std::string& label,
                          const std::vector<std::string>& subset) {
  double denom = 0.0;
  std::size_t found = 0;
  for (const ExperimentCell& cell : cells) {
    if (cell.algorithm != label) continue;
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
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "Locality ablation: reorder x prefetch x word-scan (BFS_CL_H)",
      "DESIGN.md §3.1a (not a paper figure)");

  WorkloadConfig wconfig = workload_config_from_env();
  std::vector<const char*> graph_names{"wikipedia", "rmat_sparse",
                                       "rmat_dense"};
  if (smoke) {
    wconfig.scale = std::min(wconfig.scale, 0.05);
    graph_names = {"wikipedia"};
  }
  std::vector<Workload> workloads;
  for (const char* name : graph_names) {
    workloads.push_back(make_workload(name, wconfig));
    bench::print_workload_line(workloads.back());
  }
  std::cout << '\n';

  // The full cross product, baseline first. Prefetch distance 8 sits in
  // the middle of the useful 4..16 window (bench_micro_primitives).
  std::vector<LocalityConfig> configs;
  if (smoke) {
    configs.push_back({ReorderPolicy::kNone, 0, false});
    configs.push_back({ReorderPolicy::kDegreeSort, 8, true});
  } else {
    for (const ReorderPolicy policy :
         {ReorderPolicy::kNone, ReorderPolicy::kDegreeSort,
          ReorderPolicy::kHubCluster}) {
      for (const int prefetch : {0, 8}) {
        for (const bool word_scan : {false, true}) {
          configs.push_back({policy, prefetch, word_scan});
        }
      }
    }
  }
  const std::string baseline_label = configs.front().label();

  const int threads = smoke ? 2 : env_threads(8);
  const int num_sources = smoke ? 2 : env_sources(4);
  const bool verify = smoke || env_verify();

  // One sweep per (graph, reorder policy): the reordered graph is built
  // once and every (pf, ws) cell runs on it. Sources are sampled from
  // the *original* graph and passed unchanged — the engines accept
  // original IDs on reordered graphs (bfs_result.hpp convention), so
  // every cell of a graph column traverses the same source set.
  std::vector<ExperimentCell> cells;
  for (const Workload& workload : workloads) {
    const std::vector<vid_t> sources =
        sample_sources(workload.graph, num_sources, /*seed=*/42);
    for (const ReorderPolicy policy :
         {ReorderPolicy::kNone, ReorderPolicy::kDegreeSort,
          ReorderPolicy::kHubCluster}) {
      const bool used = std::any_of(
          configs.begin(), configs.end(),
          [&](const LocalityConfig& c) { return c.reorder == policy; });
      if (!used) continue;
      const CsrGraph reordered = policy == ReorderPolicy::kNone
                                     ? CsrGraph{}
                                     : workload.graph.reorder(policy);
      const CsrGraph& graph =
          policy == ReorderPolicy::kNone ? workload.graph : reordered;
      for (const LocalityConfig& config : configs) {
        if (config.reorder != policy) continue;
        BFSOptions options;
        options.num_threads = threads;
        options.prefetch_distance = config.prefetch;
        options.bottom_up_word_scan = config.word_scan;
        auto engine = make_bfs(kEngine, graph, options);
        ExperimentCell cell;
        cell.graph = workload.name;
        cell.algorithm = config.label();
        cell.threads = threads;
        cell.measurement = measure_bfs(*engine, graph, sources, verify);
        cells.push_back(std::move(cell));
      }
    }
  }

  const std::vector<std::string> subset(graph_names.begin(),
                                        graph_names.end());
  std::vector<std::string> header{"Config (MTEPS)"};
  for (const Workload& w : workloads) header.push_back(w.name);
  header.push_back("HM");
  header.push_back("vs baseline");
  Table table(header);

  const double base_hm = harmonic_mean_teps(cells, baseline_label, subset);
  std::string best_label = baseline_label;
  double best_speedup = 1.0;
  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("engine").value(kEngine);
  sw.key("baseline").value(baseline_label);
  sw.key("scale_free_graphs").begin_array();
  for (const std::string& graph : subset) sw.value(graph);
  sw.end_array();
  sw.key("speedup").begin_object();
  for (const LocalityConfig& config : configs) {
    const std::string label = config.label();
    const std::size_t row = table.add_row();
    table.set(row, 0, label);
    for (std::size_t c = 0; c < workloads.size(); ++c) {
      for (const ExperimentCell& cell : cells) {
        if (cell.algorithm == label && cell.graph == workloads[c].name) {
          table.set(row, c + 1, cell.measurement.mean_teps / 1e6, 2);
        }
      }
    }
    const double hm = harmonic_mean_teps(cells, label, subset);
    const double speedup = base_hm > 0.0 ? hm / base_hm : 0.0;
    table.set(row, workloads.size() + 1, hm / 1e6, 2);
    table.set(row, workloads.size() + 2, speedup, 3);
    sw.key(label).value(speedup);
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_label = label;
    }
  }
  sw.end_object();
  sw.key("best_config").value(best_label);
  sw.key("best_speedup").value(best_speedup);
  sw.end_object();
  table.print(std::cout);

  std::cout << "\nBest config over the scale-free subset: " << best_label
            << " at " << best_speedup << "x the " << baseline_label
            << " baseline (harmonic-mean TEPS, " << threads
            << " threads).\n";
  if (verify) {
    std::cout << "every run verified against the serial oracle\n";
  }

  const bool wrote =
      bench::maybe_write_json("locality", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
