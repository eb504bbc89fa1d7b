// Dynamic-graph repair vs. from-scratch recompute (DESIGN.md §9).
//
// Sweeps update-batch size (as a fraction of m) × delete share over the
// scale-free workloads. Each round applies one random batch through
// DynamicGraph::apply and then answers the same question twice:
//
//   repair    IncrementalBfsEngine::repair on the previous level array
//             (falling back to recompute when a deletion cone blows
//             past the threshold — that time is charged to repair)
//   scratch   IncrementalBfsEngine::recompute from the source
//
// The summary reports harmonic-mean latencies per sweep point; the
// acceptance bar is repair ≥2x faster (harmonic mean) than scratch for
// small batches (≤0.1% of m). A separate long-path probe severs the
// graph near the source so the invalidation cone covers almost every
// vertex, demonstrating the recompute fallback engaging.
//
// `--smoke` runs one tiny verified round per mode (ctest wiring).
// JSON: --json <path> or OPTIBFS_JSON=1 writes BENCH_dynamic.json.
#include <algorithm>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/bfs_serial.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/generators.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"
#include "runtime/rng.hpp"

namespace {

using namespace optibfs;

struct SweepPoint {
  std::string graph;
  double batch_frac = 0.0;   ///< batch edges as a fraction of m
  double delete_ratio = 0.0; ///< share of the batch that is deletions
  std::size_t batch_edges = 0;
  int rounds = 0;
  double repair_hm_ms = 0.0;
  double scratch_hm_ms = 0.0;
  double speedup_hm = 0.0;
  std::uint64_t fallbacks = 0; ///< repair rounds that hit the cone cap
};

double harmonic_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double inv = 0.0;
  for (const double x : xs) inv += 1.0 / x;
  return static_cast<double>(xs.size()) / inv;
}

UpdateBatch random_batch(const EdgeList& current, vid_t n,
                         std::size_t edges, double delete_ratio,
                         Xoshiro256& rng) {
  UpdateBatch batch;
  const auto deletes = static_cast<std::size_t>(
      static_cast<double>(edges) * delete_ratio);
  for (std::size_t k = deletes; k < edges; ++k) {
    batch.insert(static_cast<vid_t>(rng.next_below(n)),
                 static_cast<vid_t>(rng.next_below(n)));
  }
  for (std::size_t k = 0; k < deletes && !current.edges().empty(); ++k) {
    const Edge& e = current.edges()[static_cast<std::size_t>(
        rng.next_below(current.edges().size()))];
    batch.erase(e.src, e.dst);
  }
  return batch;
}

/// A workload graph moved into shared ownership (CsrGraph is move-only;
/// DynamicGraph wants a shared immutable base).
struct BenchGraph {
  std::string name;
  std::shared_ptr<const CsrGraph> graph;
};

/// Runs one sweep point: `rounds` batches against a fresh DynamicGraph,
/// timing repair and scratch per round. Also appends the per-mode cells
/// for the shared JSON writer.
SweepPoint run_point(const BenchGraph& workload, double batch_frac,
                     double delete_ratio, int rounds, int threads,
                     bool verify, std::vector<ExperimentCell>& cells) {
  const std::shared_ptr<const CsrGraph>& base = workload.graph;
  const vid_t n = base->num_vertices();
  DynamicGraph dyn(base);

  IncrementalBfsEngine::Config config;
  config.bfs.num_threads = threads;
  IncrementalBfsEngine engine(config);

  const vid_t source = sample_sources(*base, 1, 42).front();
  std::vector<level_t> level;
  engine.recompute(dyn.snapshot(), source, level);

  SweepPoint point;
  point.graph = workload.name;
  point.batch_frac = batch_frac;
  point.delete_ratio = delete_ratio;
  point.batch_edges = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             static_cast<double>(base->num_edges()) * batch_frac));
  point.rounds = rounds;

  Xoshiro256 rng(7 + static_cast<std::uint64_t>(batch_frac * 1e7) +
                 static_cast<std::uint64_t>(delete_ratio * 100));
  std::vector<double> repair_ms, scratch_ms;
  std::vector<level_t> repaired, scratch;
  for (int round = 0; round < rounds; ++round) {
    const EdgeList current = dyn.snapshot().to_edge_list();
    const BatchSummary summary = dyn.apply(random_batch(
        current, n, point.batch_edges, delete_ratio, rng));
    const GraphSnapshot snap = dyn.snapshot();

    repaired = level;
    Timer timer;
    const RepairOutcome out = engine.repair(snap, summary, source, repaired);
    if (!out.repaired) {
      engine.recompute(snap, source, repaired);
      ++point.fallbacks;
    }
    repair_ms.push_back(timer.elapsed_ms());

    timer.reset();
    engine.recompute(snap, source, scratch);
    scratch_ms.push_back(timer.elapsed_ms());

    if (repaired != scratch) {
      throw std::runtime_error("repair diverged from recompute");
    }
    if (verify) {
      const CsrGraph oracle = CsrGraph::from_edges(snap.to_edge_list());
      if (repaired != bfs_serial(oracle, source).level) {
        throw std::runtime_error("repair diverged from serial oracle");
      }
    }
    level = repaired;  // carry the repaired state into the next round
  }

  point.repair_hm_ms = harmonic_mean(repair_ms);
  point.scratch_hm_ms = harmonic_mean(scratch_ms);
  point.speedup_hm =
      point.repair_hm_ms == 0.0 ? 0.0
                                : point.scratch_hm_ms / point.repair_hm_ms;

  std::ostringstream tag;
  tag << "b=" << batch_frac << ",del=" << delete_ratio;
  for (const char* mode : {"repair", "scratch"}) {
    ExperimentCell cell;
    cell.graph = workload.name;
    cell.algorithm = std::string(mode) + "(" + tag.str() + ")";
    cell.threads = threads;
    const std::vector<double>& ms =
        std::string_view(mode) == "repair" ? repair_ms : scratch_ms;
    cell.measurement.sources = rounds;
    cell.measurement.mean_ms = harmonic_mean(ms);
    cell.measurement.min_ms = *std::min_element(ms.begin(), ms.end());
    cell.measurement.max_ms = *std::max_element(ms.begin(), ms.end());
    cells.push_back(std::move(cell));
  }
  return point;
}

/// The fallback demonstration: a long path severed near the source puts
/// ~all of n into the invalidation cone, so repair must refuse and
/// recompute from scratch.
SweepPoint run_cone_probe(vid_t n, int threads,
                          std::vector<ExperimentCell>& cells) {
  const auto base =
      std::make_shared<const CsrGraph>(CsrGraph::from_edges(gen::path(n)));
  DynamicGraph dyn(base);

  IncrementalBfsEngine::Config config;
  config.bfs.num_threads = threads;
  IncrementalBfsEngine engine(config);

  std::vector<level_t> level;
  engine.recompute(dyn.snapshot(), 0, level);

  UpdateBatch batch;
  batch.erase(n / 100, n / 100 + 1);  // cone covers ~99% of the path
  const BatchSummary summary = dyn.apply(batch);
  const GraphSnapshot snap = dyn.snapshot();

  SweepPoint point;
  point.graph = "path_sever";
  point.batch_edges = 1;
  point.delete_ratio = 1.0;
  point.rounds = 1;

  std::vector<level_t> repaired = level;
  Timer timer;
  const RepairOutcome out = engine.repair(snap, summary, 0, repaired);
  if (!out.repaired) {
    engine.recompute(snap, 0, repaired);
    ++point.fallbacks;
  }
  point.repair_hm_ms = timer.elapsed_ms();

  std::vector<level_t> scratch;
  timer.reset();
  engine.recompute(snap, 0, scratch);
  point.scratch_hm_ms = timer.elapsed_ms();
  point.speedup_hm = point.scratch_hm_ms / point.repair_hm_ms;
  if (repaired != scratch) {
    throw std::runtime_error("cone fallback diverged from recompute");
  }

  ExperimentCell cell;
  cell.graph = "path_sever";
  cell.algorithm = "repair(cone_fallback)";
  cell.threads = threads;
  cell.measurement.sources = 1;
  cell.measurement.mean_ms = point.repair_hm_ms;
  cell.measurement.min_ms = point.repair_hm_ms;
  cell.measurement.max_ms = point.repair_hm_ms;
  cells.push_back(std::move(cell));
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner("Incremental repair vs from-scratch recompute",
                      "extension (dynamic graphs, DESIGN.md §9)");

  WorkloadConfig wconfig = workload_config_from_env();
  if (smoke) wconfig.scale = 0.05;
  const int threads = smoke ? 2 : env_threads(8);
  const int rounds = smoke ? 1 : env_sources(4);
  const bool verify = smoke || env_verify();

  std::vector<BenchGraph> workloads;
  for (const char* name : {"rmat_sparse", "wikipedia"}) {
    Workload w = make_workload(name, wconfig);
    bench::print_workload_line(w);
    workloads.push_back(
        {w.name, std::make_shared<const CsrGraph>(std::move(w.graph))});
  }
  std::cout << '\n';

  const std::vector<double> fracs =
      smoke ? std::vector<double>{0.001}
            : std::vector<double>{0.0001, 0.001, 0.01};
  const std::vector<double> delete_ratios =
      smoke ? std::vector<double>{0.5} : std::vector<double>{0.0, 0.5};

  std::vector<ExperimentCell> cells;
  std::vector<SweepPoint> points;
  for (const BenchGraph& workload : workloads) {
    for (const double frac : fracs) {
      for (const double ratio : delete_ratios) {
        points.push_back(run_point(workload, frac, ratio, rounds, threads,
                                   verify, cells));
      }
    }
  }
  points.push_back(
      run_cone_probe(smoke ? vid_t{20000} : vid_t{200000}, threads, cells));

  Table table({"graph", "batch_frac", "del_ratio", "batch_edges",
               "repair_hm_ms", "scratch_hm_ms", "speedup_hm", "fallbacks"});
  for (const SweepPoint& p : points) {
    const std::size_t r = table.add_row();
    table.set(r, 0, p.graph);
    table.set(r, 1, p.batch_frac, 4);
    table.set(r, 2, p.delete_ratio, 2);
    table.set(r, 3, static_cast<std::uint64_t>(p.batch_edges));
    table.set(r, 4, p.repair_hm_ms, 3);
    table.set(r, 5, p.scratch_hm_ms, 3);
    table.set(r, 6, p.speedup_hm, 2);
    table.set(r, 7, p.fallbacks);
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: repair wins big on small batches (the "
               "wave only touches the changed neighborhood) and converges "
               "toward scratch as the batch grows; the path_sever probe "
               "shows the deletion-cone cap refusing a near-total repair "
               "and falling back to recompute.\n";

  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("points").begin_array();
  for (const SweepPoint& p : points) {
    sw.begin_object();
    sw.key("graph").value(p.graph);
    sw.key("batch_frac").value(p.batch_frac);
    sw.key("delete_ratio").value(p.delete_ratio);
    sw.key("batch_edges").value(static_cast<std::uint64_t>(p.batch_edges));
    sw.key("rounds").value(p.rounds);
    sw.key("repair_hm_ms").value(p.repair_hm_ms);
    sw.key("scratch_hm_ms").value(p.scratch_hm_ms);
    sw.key("speedup_hm").value(p.speedup_hm);
    sw.key("fallbacks").value(p.fallbacks);
    sw.end_object();
  }
  sw.end_array();
  sw.end_object();
  const bool wrote =
      bench::maybe_write_json("dynamic", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
