// General-purpose command-line driver: run any registered algorithm on
// a generated or loaded graph, with full control over the paper's
// tuning knobs. The "swiss-army" entry point for ad-hoc experiments.
//
// Usage examples:
//   ./bfs_cli --graph rmat:16:16 --algo BFS_WSL --threads 8 --sources 16
//   ./bfs_cli --graph file:web.mtx --algo BFS_CL --verify
//   ./bfs_cli --graph powerlaw:100000:1000000:2.2 --algo BFS_DL ...
//       ... --pools 4 --numa-sockets 2 --stats
//   ./bfs_cli --list
//   ./bfs_cli --graph file:web.mtx --updates trace.txt --json out.json
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checked_args.hpp"
#include "harness/json_writer.hpp"
#include "harness/table.hpp"
#include "optibfs.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace optibfs;

[[noreturn]] void usage(int code) {
  std::cout <<
      "bfs_cli — run any optibfs algorithm on any graph\n\n"
      "  --graph SPEC     rmat:<scale>:<edgefactor> | er:<n>:<m> |\n"
      "                   powerlaw:<n>:<m>:<gamma> | grid:<rows>:<cols> |\n"
      "                   path:<n> | star:<n> | tree:<n> |\n"
      "                   chordpath:<n>:<chords>[:<span>] (road-like,\n"
      "                   diameter ~n/span) |\n"
      "                   circuit:<rows>:<cols>:<shortcuts> |\n"
      "                   file:<path[.mtx|.txt|.bin]> | workload:<name>\n"
      "                   (a bare existing path also works: --graph g.bin)\n"
      "  --storage KIND   heap (default) or mmap — mmap demand-pages a\n"
      "                   binary-CSR (.bin) graph instead of loading it\n"
      "                   (DESIGN.md section 12); works in every mode,\n"
      "                   including --updates / --kernel / --service\n"
      "  --budget MB      residency budget for mmap adjacency (0 =\n"
      "                   uncapped): cold intervals are evicted with\n"
      "                   madvise(DONTNEED) once the hot set exceeds it\n"
      "  --save PATH      write the built graph as binary CSR v2 and exit\n"
      "                   (pairs with --storage mmap on a later run)\n"
      "  --algo NAME      any of --list (default BFS_WSL)\n"
      "  --engine NAME    alias for --algo (reads better for the\n"
      "                   strict-vs-async engine-family choice)\n"
      "  --threads P      worker threads (default 4)\n"
      "  --sources K      measured sources (default 8)\n"
      "  --segment S      fixed segment size (default adaptive)\n"
      "  --threshold D    scale-free degree threshold (default adaptive)\n"
      "  --pools J        BFS_DL pool count (default 1)\n"
      "  --steal-factor C MAX_STEAL = C*p*log p (default 2)\n"
      "  --phase2-steal   scale-free phase 2 steals adjacency halves\n"
      "  --hybrid         direction-optimizing mode (same as an _H algo name)\n"
      "  --alpha A        hybrid top-down->bottom-up threshold (default 15)\n"
      "  --beta B         hybrid bottom-up->top-down threshold (default 18)\n"
      "  --subqueues K    BFS_ASYNC: subqueues per thread (default 4)\n"
      "  --batch B        BFS_ASYNC: items per work batch (default 64)\n"
      "  --prefetch D     software-prefetch lookahead (default 0 = off)\n"
      "  --edge-segments  edge-balanced adaptive segment sizing\n"
      "  --claim          enable parent-claim duplicate suppression\n"
      "  --no-clearing    disable the clearing trick (ablation)\n"
      "  --numa-sockets S simulate S sockets with local-first policies\n"
      "  --seed N         generator/policy seed (default 1)\n"
      "  --verify         validate every run against the serial oracle\n"
      "  --updates FILE   replay an edge-update trace instead of the\n"
      "                   measurement sweep: each line is `+ u v` (insert),\n"
      "                   `- u v` (delete), `commit` (end of batch; EOF\n"
      "                   commits the tail), or a `#` comment. Reports\n"
      "                   incremental-repair vs from-scratch timings per\n"
      "                   batch (DESIGN.md section 9)\n"
      "  --service        route the measurement sweep through BfsService\n"
      "                   (batch-of-1 distance queries on the configured\n"
      "                   engine; reports the service's resolved engine\n"
      "                   and auto-tuned prefetch distance)\n"
      "  --json PATH      write machine-readable results (schema v2):\n"
      "                   with --updates the per-batch timings; otherwise\n"
      "                   the measurement sweep with one record per run,\n"
      "                   each carrying the engine name so cross-family\n"
      "                   BENCH comparisons are self-describing\n"
      "  --kernel NAME    run a graph kernel (--list-kernels) instead of\n"
      "                   the BFS sweep: CC / KCORE / MIS / PRDELTA and\n"
      "                   their _RMW ablation twins (DESIGN.md section 11).\n"
      "                   --verify checks against the serial references,\n"
      "                   --json writes the kernel record\n"
      "  --list-kernels   print kernel names and exit\n"
      "  --stats          print steal/duplicate statistics\n"
      "  --trace PATH     write a Chrome trace-event JSON of the runs\n"
      "                   (open in ui.perfetto.dev or about://tracing;\n"
      "                   needs a build with OPTIBFS_TELEMETRY=ON)\n"
      "  --list           print algorithm names and exit\n";
  std::exit(code);
}

using examples::parse_number;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, sep)) parts.push_back(item);
  return parts;
}

CsrGraph build_graph(const std::string& spec, std::uint64_t seed,
                     const io::CsrLoadOptions& load) {
  auto parts = split(spec, ':');
  // Bare-path convenience: `--graph graphs/web.bin` (no generator
  // prefix, names an existing file) reads as `file:graphs/web.bin`.
  if (parts.size() == 1 && std::ifstream(spec).good()) {
    parts = {"file", spec};
  }
  const std::string& kind = parts.front();
  if (load.storage == storage::StorageKind::kMmap &&
      (kind != "file" || !parts.at(1).ends_with(".bin"))) {
    std::cerr << "--storage mmap needs a binary-CSR input (--graph "
                 "file:<path>.bin); build one first with --save\n";
    std::exit(2);
  }
  auto arg = [&](std::size_t i) -> long long {
    if (i >= parts.size()) {
      std::cerr << "graph spec '" << spec << "' is missing arguments\n";
      std::exit(2);
    }
    return parse_number<long long>("graph spec '" + spec + "'", parts[i]);
  };
  if (kind == "rmat") {
    return CsrGraph::from_edges(
        gen::rmat(static_cast<int>(arg(1)), static_cast<int>(arg(2)), seed));
  }
  if (kind == "er") {
    return CsrGraph::from_edges(gen::erdos_renyi(
        static_cast<vid_t>(arg(1)), static_cast<eid_t>(arg(2)), seed));
  }
  if (kind == "powerlaw") {
    const double gamma =
        parts.size() > 3 ? parse_number<double>("powerlaw gamma", parts[3])
                         : 2.2;
    return CsrGraph::from_edges(gen::power_law(
        static_cast<vid_t>(arg(1)), static_cast<eid_t>(arg(2)), gamma, seed));
  }
  if (kind == "grid") {
    return CsrGraph::from_edges(gen::grid2d(static_cast<vid_t>(arg(1)),
                                            static_cast<vid_t>(arg(2))));
  }
  if (kind == "path") {
    return CsrGraph::from_edges(gen::path(static_cast<vid_t>(arg(1))));
  }
  if (kind == "chordpath") {
    const vid_t span =
        parts.size() > 3 ? static_cast<vid_t>(arg(3)) : vid_t{8};
    return CsrGraph::from_edges(gen::path_with_chords(
        static_cast<vid_t>(arg(1)), static_cast<eid_t>(arg(2)), span, seed));
  }
  if (kind == "circuit") {
    return CsrGraph::from_edges(
        gen::circuit_like(static_cast<vid_t>(arg(1)),
                          static_cast<vid_t>(arg(2)),
                          static_cast<eid_t>(arg(3)), seed));
  }
  if (kind == "star") {
    return CsrGraph::from_edges(gen::star(static_cast<vid_t>(arg(1))));
  }
  if (kind == "tree") {
    return CsrGraph::from_edges(gen::binary_tree(static_cast<vid_t>(arg(1))));
  }
  if (kind == "workload") {
    WorkloadConfig config = workload_config_from_env();
    config.seed = seed;
    return make_workload(parts.at(1), config).graph;
  }
  if (kind == "file") {
    const std::string& path = parts.at(1);
    if (path.ends_with(".mtx")) {
      return CsrGraph::from_edges(io::read_matrix_market_file(path));
    }
    if (path.ends_with(".bin")) {
      return io::read_binary_csr(path, load);
    }
    return CsrGraph::from_edges(io::read_edge_list_file(path));
  }
  std::cerr << "unknown graph kind '" << kind << "'\n";
  std::exit(2);
}

std::vector<UpdateBatch> read_update_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open update trace '" << path << "'\n";
    std::exit(2);
  }
  std::vector<UpdateBatch> batches;
  UpdateBatch batch;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op) || op[0] == '#') continue;
    if (op == "commit") {
      if (!batch.empty()) batches.push_back(std::move(batch));
      batch = UpdateBatch{};
      continue;
    }
    long long u = -1, v = -1;
    if ((op != "+" && op != "-") || !(fields >> u >> v) || u < 0 || v < 0) {
      std::cerr << "bad trace line: '" << line << "'\n";
      std::exit(2);
    }
    if (op == "+") batch.insert(static_cast<vid_t>(u), static_cast<vid_t>(v));
    else batch.erase(static_cast<vid_t>(u), static_cast<vid_t>(v));
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

/// One measured sweep run. The engine name rides along per record (not
/// just once per file) because service-routed sweeps resolve the engine
/// at register_graph time — a BENCH comparison mixing families must be
/// self-describing row by row.
struct RunRecord {
  vid_t source = 0;
  double ms = 0.0;
  std::string engine;
};

/// Schema-v2 sweep document shared by the engine-direct and
/// service-routed paths. `service_stats_json` is spliced verbatim when
/// non-empty (ServiceStats::to_json()).
int write_sweep_json(const std::string& json_path,
                     const std::string& graph_spec, const CsrGraph& graph,
                     int threads, const std::vector<RunRecord>& runs,
                     const std::string& service_stats_json) {
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << "cannot write '" << json_path << "'\n";
    return 1;
  }
  double total = 0.0, min_ms = 0.0, max_ms = 0.0;
  for (const RunRecord& run : runs) {
    if (total == 0.0 || run.ms < min_ms) min_ms = run.ms;
    max_ms = std::max(max_ms, run.ms);
    total += run.ms;
  }
  JsonWriter w(out);
  w.begin_object();
  write_result_header(w);
  w.key("graph").value(graph_spec);
  w.key("n").value(static_cast<std::uint64_t>(graph.num_vertices()));
  w.key("m").value(static_cast<std::uint64_t>(graph.num_edges()));
  w.key("threads").value(threads);
  w.key("mean_ms").value(runs.empty() ? 0.0
                                      : total / static_cast<double>(
                                                    runs.size()));
  w.key("min_ms").value(min_ms);
  w.key("max_ms").value(max_ms);
  w.key("runs").begin_array();
  for (const RunRecord& run : runs) {
    w.begin_object();
    w.key("source").value(static_cast<std::uint64_t>(run.source));
    w.key("ms").value(run.ms);
    w.key("engine").value(run.engine);
    w.end_object();
  }
  w.end_array();
  if (!service_stats_json.empty()) {
    w.key("service_stats").raw(service_stats_json);
  }
  w.end_object();
  out << '\n';
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

/// --service mode: route the sweep through BfsService as batch-of-1
/// distance queries. The cache is disabled so every query pays a full
/// dispatch, and the engine name / prefetch distance come back from
/// ServiceStats (the register_graph-time strict-vs-relaxed resolution
/// and auto-tune probe), not from the flag the user passed.
int run_service_sweep(CsrGraph&& owned, const std::string& graph_spec,
                      const std::string& algorithm, const BFSOptions& options,
                      const std::vector<vid_t>& sources, bool verify,
                      bool stats, const std::string& json_path) {
  ServiceConfig config;
  config.num_threads = options.num_threads;
  config.cache_bytes = 0;  // every query is a real dispatch
  config.single_source_engine = algorithm;
  config.bfs = options;
  config.storage_budget_bytes = options.storage_budget_bytes;
  BfsService service(config);
  const auto shared = std::make_shared<const CsrGraph>(std::move(owned));
  const CsrGraph& graph = *shared;
  service.register_graph(shared);
  const ServiceStats registered = service.stats();
  std::cout << "running service-routed " << registered.single_source_engine
            << " (prefetch " << registered.prefetch_distance << ") with "
            << options.num_threads << " threads over " << sources.size()
            << " sources" << (verify ? " (verified)" : "") << "...\n";

  std::vector<RunRecord> runs;
  double total = 0.0, min_ms = 0.0, max_ms = 0.0;
  for (const vid_t source : sources) {
    Timer timer;
    const QueryResult result = service.distance(source);
    const double ms = timer.elapsed_ms();
    if (!result.ok()) {
      std::cerr << "service query for source " << source << " failed\n";
      return 1;
    }
    if (verify && *result.levels != bfs_serial(graph, source).level) {
      std::cerr << "service result for source " << source
                << " diverged from the serial oracle\n";
      return 1;
    }
    runs.push_back({source, ms, registered.single_source_engine});
    if (total == 0.0 || ms < min_ms) min_ms = ms;
    max_ms = std::max(max_ms, ms);
    total += ms;
  }
  std::cout << "  mean " << total / static_cast<double>(sources.size())
            << " ms/query  (min " << min_ms << ", max " << max_ms << ")\n";
  const ServiceStats after = service.stats();
  if (stats) std::cout << "  service stats: " << after.to_json() << "\n";
  if (!json_path.empty()) {
    return write_sweep_json(json_path, graph_spec, graph,
                            options.num_threads, runs, after.to_json());
  }
  return 0;
}

/// --kernel mode: one kernel run with a per-family summary, optional
/// reference verification, and the same schema-v2 JSON path the sweep
/// uses (one record, engine name = kernel name).
int run_kernel_mode(const CsrGraph& graph, const std::string& graph_spec,
                    const std::string& kernel_name, const BFSOptions& options,
                    bool verify, bool stats, const std::string& json_path) {
  if (!kernels::is_kernel(kernel_name)) {
    std::cerr << "unknown kernel '" << kernel_name << "' (--list-kernels)\n";
    return 2;
  }
  Timer timer;
  kernels::KernelResult result;
  kernels::make_kernel(kernel_name, graph, options)->run(result);
  const double ms = timer.elapsed_ms();
  const vid_t n = graph.num_vertices();
  std::cout << "ran " << result.name << " with " << options.num_threads
            << " threads: " << result.rounds << " rounds, " << ms
            << " ms\n";

  const bool is_cc = !result.labels.empty() && result.core.empty() &&
                     kernel_name.rfind("CC", 0) == 0;
  const bool is_mis = kernel_name.rfind("MIS", 0) == 0;
  if (is_cc) {
    std::uint64_t components = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (result.labels[v] == v) ++components;
    }
    std::cout << "  components: " << components << "\n";
  } else if (is_mis) {
    std::uint64_t in_set = 0;
    for (const vid_t flag : result.labels) in_set += flag;
    std::cout << "  independent set size: " << in_set << "\n";
  } else if (!result.core.empty()) {
    std::uint32_t degeneracy = 0;
    for (const std::uint32_t c : result.core) {
      degeneracy = std::max(degeneracy, c);
    }
    std::cout << "  degeneracy (max coreness): " << degeneracy << "\n";
  } else if (!result.rank.empty()) {
    double mass = 0.0;
    vid_t top = 0;
    for (vid_t v = 0; v < n; ++v) {
      mass += result.rank[v];
      if (result.rank[v] > result.rank[top]) top = v;
    }
    std::cout << "  rank mass: " << mass << "  top vertex: " << top << " ("
              << result.rank[top] << ")\n";
  }

  if (verify) {
    if (is_cc) {
      if (result.labels != kernels::cc_reference(graph)) {
        std::cerr << result.name << " diverged from cc_reference\n";
        return 1;
      }
    } else if (is_mis) {
      std::string why;
      if (!kernels::mis_validate(graph, result.labels, &why)) {
        std::cerr << result.name << " invalid: " << why << "\n";
        return 1;
      }
    } else if (!result.core.empty()) {
      if (result.core != kernels::kcore_reference(graph)) {
        std::cerr << result.name << " diverged from kcore_reference\n";
        return 1;
      }
    } else {
      const auto ref = kernels::pagerank_reference(graph, options.pr_damping);
      const double bound = options.pr_epsilon * static_cast<double>(n) /
                           (1.0 - options.pr_damping);
      for (vid_t v = 0; v < n; ++v) {
        if (std::abs(result.rank[v] - ref[v]) > bound + 1e-12) {
          std::cerr << result.name << " rank[" << v
                    << "] outside the truncation bound\n";
          return 1;
        }
      }
    }
    std::cout << "  verified against the serial reference\n";
  }

  using telemetry::Counter;
  const auto& c = result.counters;
  if (stats) {
    std::cout << "  rounds=" << c[Counter::kKernelRounds]
              << " activations=" << c[Counter::kKernelActivations]
              << " dup_activations=" << c[Counter::kKernelDupActivations]
              << " repair_passes=" << c[Counter::kKernelRepairPasses]
              << " repair_fixes=" << c[Counter::kKernelRepairFixes]
              << " conflict_demotes=" << c[Counter::kKernelConflictDemotes]
              << " rmw_ops=" << c[Counter::kKernelRmwOps] << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write '" << json_path << "'\n";
      return 1;
    }
    JsonWriter w(out);
    w.begin_object();
    write_result_header(w);
    w.key("graph").value(graph_spec);
    w.key("n").value(static_cast<std::uint64_t>(n));
    w.key("m").value(static_cast<std::uint64_t>(graph.num_edges()));
    w.key("threads").value(options.num_threads);
    w.key("kernel").value(result.name);
    w.key("rounds").value(result.rounds);
    w.key("ms").value(ms);
    w.key("kernel_activations").value(c[Counter::kKernelActivations]);
    w.key("kernel_dup_activations").value(c[Counter::kKernelDupActivations]);
    w.key("kernel_repair_passes").value(c[Counter::kKernelRepairPasses]);
    w.key("kernel_repair_fixes").value(c[Counter::kKernelRepairFixes]);
    w.key("kernel_conflict_demotes")
        .value(c[Counter::kKernelConflictDemotes]);
    w.key("kernel_rmw_ops").value(c[Counter::kKernelRmwOps]);
    w.end_object();
    out << '\n';
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

/// --updates mode: replay the trace through DynamicGraph, timing each
/// batch both ways — incremental repair of the standing level array
/// (with its cone-fallback recompute charged to repair) against a
/// from-scratch recompute over the same snapshot.
int replay_updates(CsrGraph&& graph, const std::string& trace_path,
                   const std::string& json_path, const BFSOptions& options,
                   bool verify) {
  const std::vector<UpdateBatch> batches = read_update_trace(trace_path);
  if (batches.empty()) {
    std::cerr << "update trace '" << trace_path << "' has no updates\n";
    return 1;
  }
  const auto base = std::make_shared<const CsrGraph>(std::move(graph));
  DynamicGraph dyn(base);
  IncrementalBfsEngine::Config config;
  config.bfs = options;
  IncrementalBfsEngine engine(config);

  const vid_t source = sample_sources(*base, 1, options.seed).front();
  std::vector<level_t> level;
  engine.recompute(dyn.snapshot(), source, level);
  std::cout << "replaying " << batches.size() << " batches from "
            << trace_path << " (source " << source << ", "
            << options.num_threads << " threads)\n";

  struct BatchRow {
    std::uint64_t version = 0;
    std::uint64_t applied = 0, ignored = 0;
    bool compacted = false, fallback = false;
    double repair_ms = 0.0, scratch_ms = 0.0;
  };
  std::vector<BatchRow> rows;
  std::vector<level_t> scratch;
  for (const UpdateBatch& batch : batches) {
    const BatchSummary summary = dyn.apply(batch);
    const GraphSnapshot snap = dyn.snapshot();
    BatchRow row;
    row.version = summary.version;
    row.applied = summary.inserted + summary.erased;
    row.ignored = summary.ignored;
    row.compacted = summary.compacted;

    Timer timer;
    const RepairOutcome out = engine.repair(snap, summary, source, level);
    if (!out.repaired) {
      engine.recompute(snap, source, level);
      row.fallback = true;
    }
    row.repair_ms = timer.elapsed_ms();

    timer.reset();
    engine.recompute(snap, source, scratch);
    row.scratch_ms = timer.elapsed_ms();
    if (level != scratch) {
      std::cerr << "repair diverged from recompute at version "
                << row.version << "\n";
      return 1;
    }
    if (verify &&
        level != bfs_serial(CsrGraph::from_edges(snap.to_edge_list()), source)
                     .level) {
      std::cerr << "repair diverged from the serial oracle at version "
                << row.version << "\n";
      return 1;
    }
    rows.push_back(row);
  }

  Table table({"version", "applied", "ignored", "compacted", "fallback",
               "repair_ms", "scratch_ms", "speedup"});
  double repair_total = 0.0, scratch_total = 0.0;
  for (const BatchRow& row : rows) {
    repair_total += row.repair_ms;
    scratch_total += row.scratch_ms;
    const std::size_t r = table.add_row();
    table.set(r, 0, row.version);
    table.set(r, 1, row.applied);
    table.set(r, 2, row.ignored);
    table.set(r, 3, std::string(row.compacted ? "yes" : "no"));
    table.set(r, 4, std::string(row.fallback ? "yes" : "no"));
    table.set(r, 5, row.repair_ms, 3);
    table.set(r, 6, row.scratch_ms, 3);
    table.set(r, 7, row.scratch_ms / row.repair_ms, 2);
  }
  table.print(std::cout);
  std::cout << "  totals: repair " << repair_total << " ms, from-scratch "
            << scratch_total << " ms (" << scratch_total / repair_total
            << "x)\n"
            << "  final graph: m=" << dyn.num_edges() << " version="
            << dyn.version() << " compactions=" << dyn.compactions() << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write '" << json_path << "'\n";
      return 1;
    }
    JsonWriter w(out);
    w.begin_object();
    write_result_header(w);
    w.key("trace").value(trace_path);
    w.key("source").value(std::uint64_t{source});
    w.key("threads").value(options.num_threads);
    w.key("repair_total_ms").value(repair_total);
    w.key("scratch_total_ms").value(scratch_total);
    w.key("batches").begin_array();
    for (const BatchRow& row : rows) {
      w.begin_object();
      w.key("version").value(row.version);
      w.key("applied").value(row.applied);
      w.key("ignored").value(row.ignored);
      w.key("compacted").value(row.compacted);
      w.key("fallback").value(row.fallback);
      w.key("repair_ms").value(row.repair_ms);
      w.key("scratch_ms").value(row.scratch_ms);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_spec = "rmat:14:16";
  std::string algorithm = "BFS_WSL";
  BFSOptions options;
  int sources_count = 8;
  bool verify = false;
  bool stats = false;
  bool use_service = false;
  std::string kernel_name;
  std::string trace_path;
  std::string updates_path;
  std::string json_path;
  std::string save_path;
  io::CsrLoadOptions load;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(2);
      return argv[i];
    };
    if (arg == "--graph") graph_spec = next();
    else if (arg == "--storage") {
      const std::string kind = next();
      if (kind == "heap") load.storage = storage::StorageKind::kHeap;
      else if (kind == "mmap") load.storage = storage::StorageKind::kMmap;
      else {
        std::cerr << "--storage must be heap or mmap, not '" << kind << "'\n";
        return 2;
      }
    }
    else if (arg == "--budget") {
      options.storage_budget_bytes =
          parse_number<std::uint64_t>(arg, next()) * (1ull << 20);
      load.budget_bytes = options.storage_budget_bytes;
    }
    else if (arg == "--save") save_path = next();
    else if (arg == "--algo" || arg == "--engine") algorithm = next();
    else if (arg == "--subqueues") options.async_subqueues = parse_number<int>(arg, next(), 1);
    else if (arg == "--batch") options.async_batch_size = parse_number<int>(arg, next(), 1);
    else if (arg == "--prefetch") options.prefetch_distance = parse_number<int>(arg, next(), 0);
    else if (arg == "--service") use_service = true;
    else if (arg == "--kernel") kernel_name = next();
    else if (arg == "--list-kernels") {
      for (const auto& name : kernels::all_kernels()) std::cout << name << '\n';
      return 0;
    }
    else if (arg == "--threads") options.num_threads = parse_number<int>(arg, next(), 1);
    else if (arg == "--sources") sources_count = parse_number<int>(arg, next(), 1);
    else if (arg == "--segment") options.segment_size = parse_number<std::int64_t>(arg, next(), 0);
    else if (arg == "--threshold") options.degree_threshold = parse_number<vid_t>(arg, next());
    else if (arg == "--pools") options.dl_pools = parse_number<int>(arg, next(), 1);
    else if (arg == "--steal-factor") options.steal_attempt_factor = parse_number<int>(arg, next(), 1);
    else if (arg == "--phase2-steal") options.phase2 = Phase2Mode::kStealing;
    else if (arg == "--hybrid") options.direction_mode = DirectionMode::kHybrid;
    else if (arg == "--alpha") options.alpha = parse_number<int>(arg, next(), 0);
    else if (arg == "--beta") options.beta = parse_number<int>(arg, next(), 0);
    else if (arg == "--edge-segments") options.edge_balanced_segments = true;
    else if (arg == "--claim") options.parent_claim_dedup = true;
    else if (arg == "--no-clearing") options.clear_slots = false;
    else if (arg == "--numa-sockets") { options.numa_aware = true; options.num_sockets = parse_number<int>(arg, next(), 0); }
    else if (arg == "--seed") options.seed = parse_number<std::uint64_t>(arg, next());
    else if (arg == "--verify") verify = true;
    else if (arg == "--updates") updates_path = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--stats") stats = true;
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--list") {
      for (const auto& name : all_algorithms()) std::cout << name << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") usage(0);
    else {
      std::cerr << "unknown flag '" << arg << "'\n";
      usage(2);
    }
  }

  const std::vector<std::string> algorithms = all_algorithms();
  if (std::find(algorithms.begin(), algorithms.end(), algorithm) ==
      algorithms.end()) {
    std::cerr << "unknown algorithm '" << algorithm
              << "' (--list prints the names)\n";
    return 2;
  }

  CsrGraph graph = build_graph(graph_spec, options.seed, load);
  std::cout << "graph " << graph_spec << ": n=" << graph.num_vertices()
            << " m=" << graph.num_edges() << " (storage "
            << storage::storage_kind_name(graph.storage_kind()) << ")\n";
  if (graph.num_vertices() == 0) {
    std::cerr << "empty graph\n";
    return 1;
  }
  if (options.storage_budget_bytes != 0) {
    graph.set_storage_budget(options.storage_budget_bytes);
  }

  if (!save_path.empty()) {
    io::write_binary_csr(save_path, graph);
    std::cout << "wrote " << save_path << " (binary CSR v2)\n";
    return 0;
  }

  if (!kernel_name.empty()) {
    return run_kernel_mode(graph, graph_spec, kernel_name, options, verify,
                           stats, json_path);
  }

  if (!updates_path.empty()) {
    return replay_updates(std::move(graph), updates_path, json_path, options,
                          verify);
  }

  const auto sources = sample_sources(graph, sources_count, options.seed);

  if (use_service) {
    return run_service_sweep(std::move(graph), graph_spec, algorithm, options,
                             sources, verify, stats, json_path);
  }

  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (!trace_path.empty()) {
    recorder = std::make_unique<telemetry::FlightRecorder>();
    options.telemetry = recorder.get();
  }

  auto engine = make_bfs(algorithm, graph, options);
  std::cout << "running " << engine->name() << " with "
            << options.num_threads << " threads over " << sources.size()
            << " sources" << (verify ? " (verified)" : "") << "...\n";

  std::vector<RunRecord> runs;  // per-run records for --json
  RunMeasurement m;
  if (json_path.empty()) {
    m = measure_bfs(*engine, graph, sources, verify);
  } else {
    // Manual sweep so each run yields its own record (measure_bfs only
    // aggregates); same timing, verification, and TEPS convention.
    m.min_ms = std::numeric_limits<double>::infinity();
    BFSResult result;
    double total_ms = 0.0, total_teps = 0.0, total_duplicates = 0.0;
    for (const vid_t source : sources) {
      Timer timer;
      engine->run(source, result);
      const double ms = timer.elapsed_ms();
      if (verify) {
        const VerifyReport report =
            verify_against_serial(graph, source, result);
        if (!report) {
          std::cerr << engine->name()
                    << " failed verification: " << report.error << "\n";
          return 1;
        }
      }
      std::uint64_t component_edges = 0;
      for (vid_t v = 0; v < graph.num_vertices(); ++v) {
        if (result.level[v] != kUnvisited) {
          component_edges += graph.out_degree(graph.to_internal(v));
        }
      }
      runs.push_back({source, ms, std::string(engine->name())});
      total_ms += ms;
      m.min_ms = std::min(m.min_ms, ms);
      m.max_ms = std::max(m.max_ms, ms);
      if (ms > 0.0) {
        total_teps += static_cast<double>(component_edges) / (ms / 1e3);
      }
      total_duplicates +=
          static_cast<double>(result.duplicate_explorations());
      m.steal_stats += result.steal_stats;
      m.counters += result.counters;
    }
    const auto count = static_cast<double>(sources.size());
    m.sources = static_cast<int>(sources.size());
    m.mean_ms = total_ms / count;
    m.mean_teps = total_teps / count;
    m.mean_duplicates = total_duplicates / count;
  }
  std::cout << "  mean " << m.mean_ms << " ms/source  (min " << m.min_ms
            << ", max " << m.max_ms << ")\n"
            << "  " << m.mean_teps / 1e6 << " MTEPS\n"
            << "  duplicates/source: " << m.mean_duplicates << "\n";
  if (!json_path.empty()) {
    const int rc = write_sweep_json(json_path, graph_spec, graph,
                                    options.num_threads, runs, "");
    if (rc != 0) return rc;
  }
  if (stats) {
    const StealStats& s = m.steal_stats;
    std::cout << "  steal attempts: " << s.total_attempts() << " total, "
              << s.successful << " successful, " << s.failed_victim_locked
              << " victim-locked, " << s.failed_victim_idle
              << " victim-idle, " << s.failed_segment_too_small
              << " too-small, " << s.failed_stale_segment << " stale, "
              << s.failed_invalid_segment << " invalid\n";
  }
  if (recorder) {
    if (recorder->write_chrome_trace(trace_path)) {
      std::cout << "wrote " << trace_path
                << " (load in ui.perfetto.dev)\n"
                << "counters: " << recorder->counters_json() << "\n";
    } else {
      std::cerr << "could not write " << trace_path
                << " (is this an OPTIBFS_TELEMETRY=OFF build?)\n";
      return 1;
    }
  }
  return 0;
}
