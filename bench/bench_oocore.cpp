// Out-of-core storage sweep: memory budget vs BFS throughput on the
// mmap backend, against the all-in-RAM heap baseline (DESIGN.md §12).
//
// Not a paper artifact — the paper's graphs all fit in RAM. This
// measures the storage tier the PR-8 subsystem adds: the same binary
// CSR file is served heap-backed (fully loaded, fully validated) and
// mmap-backed under a shrinking residency budget (uncapped, 1/4 and
// 1/16 of the adjacency bytes). Between sources every mmap cell is
// evicted cold (MADV_DONTNEED + page-cache drop), so each run re-pages
// its working set through the budget rather than inheriting a warm
// cache from the previous one.
//
// The acceptance claim is *graceful degradation*: a budget smaller
// than the graph must cost throughput, never correctness — every cell
// is verified against the serial oracle, and the summary records that
// the tightest-budget mmap cells completed correctly. The optimistic
// engines make this safe by construction: a thread stalled in a major
// fault holds no lock anyone else can convoy on (it just looks slow,
// like any straggler the stealing already tolerates).
//
// Cells: {heap, mmap} x {none, hub_cluster} x budget, on BFS_WSL.
// Reordered cells read a hub_cluster file written offline (reorder ->
// save -> reopen; the v2 format persists the permutation, so sources
// and levels stay in original IDs and verify against the same oracle).
//
// `--smoke` runs a tiny verified sweep with page-sized intervals and a
// two-page budget (ctest wiring; exercises real evictions).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/bfs_serial.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"

namespace {

using namespace optibfs;

constexpr const char* kEngine = "BFS_WSL";

struct CellResult {
  std::string backend;
  std::string reorder;
  std::uint64_t budget_bytes = 0;  // 0 = uncapped
  double mean_ms = 0.0;
  double hm_teps = 0.0;
  bool verified = false;
  storage::StorageStats storage;
};

/// Harmonic-mean TEPS over per-source (ms, edges) pairs — the right
/// mean for rates (bench_fig3 convention).
double harmonic_teps(const std::vector<double>& ms,
                     const std::vector<std::uint64_t>& edges) {
  double denom = 0.0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double teps =
        static_cast<double>(edges[i]) / (std::max(ms[i], 1e-6) / 1e3);
    denom += 1.0 / teps;
  }
  return denom <= 0.0 ? 0.0 : static_cast<double>(ms.size()) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "Out-of-core sweep: residency budget vs HM-TEPS (heap vs mmap)",
      "DESIGN.md §12 (not a paper figure)");

  const int scale = smoke ? 8 : 18;
  const int threads = smoke ? 2 : env_threads(8);
  const int num_sources = smoke ? 2 : env_sources(3);
  const bool verify = true;  // correctness under paging is the claim

  std::cout << "building rmat:" << scale << ":16 ...\n";
  const CsrGraph base = CsrGraph::from_edges(gen::rmat(scale, 16, 1));
  std::cout << "  n=" << base.num_vertices() << " m=" << base.num_edges()
            << "\n";

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string path_none = (tmp / "optibfs_oocore_none.bin").string();
  const std::string path_hub = (tmp / "optibfs_oocore_hub.bin").string();
  io::write_binary_csr(path_none, base);
  io::write_binary_csr(path_hub, base.reorder(ReorderPolicy::kHubCluster));

  // Oracle levels per source, computed once on the in-RAM graph.
  // Sources and result levels are original IDs in every cell (the
  // persisted permutation keeps reordered graphs answering in them).
  const auto sources = sample_sources(base, num_sources, 42);
  std::vector<std::vector<level_t>> oracle;
  std::vector<std::uint64_t> component_edges;
  for (const vid_t source : sources) {
    oracle.push_back(bfs_serial(base, source).level);
    std::uint64_t edges = 0;
    for (vid_t v = 0; v < base.num_vertices(); ++v) {
      if (oracle.back()[v] != kUnvisited) edges += base.out_degree(v);
    }
    component_edges.push_back(edges);
  }

  const std::uint64_t targets_bytes = base.num_edges() * sizeof(vid_t);
  // Budget divisors: 0 encodes "uncapped". Heap ignores budgets, so it
  // gets one cell per reorder policy; mmap sweeps the full ladder.
  const std::vector<std::uint64_t> mmap_divisors =
      smoke ? std::vector<std::uint64_t>{0, 16} // 16 -> two-ish pages at scale 8
            : std::vector<std::uint64_t>{0, 4, 16};

  std::vector<CellResult> cells;
  bool all_ok = true;
  for (const ReorderPolicy policy :
       {ReorderPolicy::kNone, ReorderPolicy::kHubCluster}) {
    const std::string& path =
        policy == ReorderPolicy::kNone ? path_none : path_hub;
    for (const storage::StorageKind kind :
         {storage::StorageKind::kHeap, storage::StorageKind::kMmap}) {
      const std::vector<std::uint64_t> divisors =
          kind == storage::StorageKind::kHeap ? std::vector<std::uint64_t>{0}
                                              : mmap_divisors;
      for (const std::uint64_t divisor : divisors) {
        io::CsrLoadOptions load;
        load.storage = kind;
        load.budget_bytes = divisor == 0 ? 0 : targets_bytes / divisor;
        if (smoke && kind == storage::StorageKind::kMmap) {
          load.interval_bytes = 4096;  // tiny graph still evicts
          if (divisor != 0) load.budget_bytes = 8192;
        }
        const CsrGraph graph = io::read_binary_csr(path, load);

        BFSOptions opts;
        opts.num_threads = threads;
        opts.storage_budget_bytes = load.budget_bytes;
        auto engine = make_bfs(kEngine, graph, opts);

        CellResult cell;
        cell.backend = storage::storage_kind_name(kind);
        cell.reorder = reorder_policy_name(policy);
        cell.budget_bytes = load.budget_bytes;
        cell.verified = true;
        std::vector<double> ms_per_source;
        for (std::size_t i = 0; i < sources.size(); ++i) {
          graph.storage_evict_cold();  // each run re-pages from cold
          Timer timer;
          // Stand-in for the edgemap batcher's dense-round hints
          // (EdgeMap::advise_dense_round): one WILLNEED per
          // thread-slice, so the budget's charge/evict FIFO is
          // exercised on the BFS path too, inside the timed region —
          // hinting is part of what a budgeted traversal costs.
          if (kind == storage::StorageKind::kMmap) {
            const vid_t n = graph.num_vertices();
            const vid_t slice = std::max<vid_t>(n / (4 * threads), 1);
            for (vid_t v = 0; v < n; v += slice) {
              graph.advise_out_interval(v, std::min<vid_t>(v + slice, n),
                                        storage::Advice::kWillNeed);
            }
          }
          const BFSResult result = engine->run(sources[i]);
          ms_per_source.push_back(timer.elapsed_ms());
          if (verify && result.level != oracle[i]) {
            cell.verified = false;
            all_ok = false;
          }
        }
        double total = 0.0;
        for (const double ms : ms_per_source) total += ms;
        cell.mean_ms = total / static_cast<double>(ms_per_source.size());
        cell.hm_teps = harmonic_teps(ms_per_source, component_edges);
        cell.storage = graph.storage_stats();
        cells.push_back(cell);

        std::cout << "  " << cell.backend << "/" << cell.reorder
                  << " budget=" << (divisor == 0 ? std::string("uncapped")
                                                 : std::to_string(
                                                       cell.budget_bytes))
                  << ": " << cell.mean_ms << " ms  "
                  << cell.hm_teps / 1e6 << " MTEPS  (advises "
                  << cell.storage.advise_calls << ", evictions "
                  << cell.storage.evictions << ", majflt~"
                  << cell.storage.major_faults << ")"
                  << (cell.verified ? "" : "  VERIFY FAILED") << "\n";
      }
    }
  }
  std::remove(path_none.c_str());
  std::remove(path_hub.c_str());

  const std::string json = bench::json_path("oocore", argc, argv);
  if (!json.empty()) {
    // Rendered before the file is opened, so the header's git stamp
    // does not see a truncated tracked BENCH file as a dirty tree.
    std::ostringstream body;
    JsonWriter w(body);
    w.begin_object();
    write_result_header(w);
    w.key("bench").value("oocore");
    w.key("engine").value(kEngine);
    w.key("n").value(std::uint64_t{base.num_vertices()});
    w.key("m").value(std::uint64_t{base.num_edges()});
    w.key("targets_bytes").value(targets_bytes);
    w.key("threads").value(threads);
    w.key("sources").value(static_cast<std::uint64_t>(sources.size()));
    w.key("all_verified").value(all_ok);
    w.key("cells").begin_array();
    for (const CellResult& cell : cells) {
      w.begin_object();
      w.key("backend").value(cell.backend);
      w.key("reorder").value(cell.reorder);
      w.key("budget_bytes").value(cell.budget_bytes);
      w.key("mean_ms").value(cell.mean_ms);
      w.key("hm_teps").value(cell.hm_teps);
      w.key("verified").value(cell.verified);
      w.key("storage_map_bytes").value(cell.storage.map_bytes);
      w.key("storage_hot_bytes").value(cell.storage.hot_bytes);
      w.key("storage_advise_calls").value(cell.storage.advise_calls);
      w.key("storage_evictions").value(cell.storage.evictions);
      w.key("storage_major_fault_estimate").value(cell.storage.major_faults);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    body << '\n';
    std::ofstream out(json);
    if (!out || !(out << body.str())) {
      std::cerr << "cannot write '" << json << "'\n";
      return 1;
    }
    std::cout << "\nwrote " << json << "\n";
  }

  if (!all_ok) {
    std::cerr << "\nFAIL: a budgeted cell diverged from the oracle\n";
    return 1;
  }
  std::cout << "\nall cells verified: budgets degrade throughput, never "
               "correctness\n";
  return 0;
}
