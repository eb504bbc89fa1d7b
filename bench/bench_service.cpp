// Service bench: batched query throughput vs. one-query-at-a-time.
//
// The tentpole claim for the query service (DESIGN.md §4): coalescing
// point queries into optimistic MS-BFS waves beats dispatching each
// query to its own single-source run, because overlapping traversals
// share adjacency scans. This sweep fixes the workload (rmat_dense, the
// scale-free low-diameter case where overlap is near-total) and the
// thread count, and varies only the service's max batch width W:
// W=1 degenerates to the one-at-a-time baseline (every dispatch runs
// the BFS_CL_H hybrid engine), larger W lets the replica coalesce.
//
// The cache is disabled so every query pays a real traversal — we are
// measuring the wave, not memoization. Queries ask for full distance
// arrays from distinct sources (the worst case for ride-along sharing:
// no duplicate sources, every coalesced slot is real work).
//
// JSON: --json <path> or OPTIBFS_JSON=1 writes BENCH_service.json with
// one cell per W. The `mean_teps` column carries queries-per-second
// (a query is the service's unit of work, not an edge), `mean_ms` the
// mean per-query wall share; the summary block records qps per width,
// the W=8 speedup, and the W=8 run's ServiceStats (batch histogram,
// latency percentiles) verbatim.
#include <future>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"
#include "service/bfs_service.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  bench::print_banner("BFS query service: batch-width sweep",
                      "extension (service throughput, DESIGN.md §4)");

  const WorkloadConfig wconfig = workload_config_from_env();
  Workload w = make_workload("rmat_dense", wconfig);
  bench::print_workload_line(w);
  const int threads = env_threads(8);
  const int queries = env_sources(4) * 64;
  const auto graph = std::make_shared<const CsrGraph>(std::move(w.graph));

  // Distinct sources cycled across the query stream: no same-source
  // ride-along, so width-W waves do W sources of real work.
  const auto pool = sample_sources(*graph, 256, /*seed=*/42);

  std::cout << "  " << queries << " distance queries per width, " << threads
            << " workers, cache off\n\n";

  Table table({"W", "wall ms", "q/s", "mean width", "p50 ms", "p99 ms",
               "speedup"});
  std::vector<ExperimentCell> cells;
  std::vector<std::pair<int, double>> qps_per_width;
  double baseline_qps = 0.0, qps_w8 = 0.0;
  std::string stats_w8_json;

  for (const int width : {1, 2, 4, 8, 16, 32, 64}) {
    ServiceConfig config;
    config.num_threads = threads;
    config.max_batch = width;
    config.max_queue = static_cast<std::size_t>(queries) + 16;
    config.cache_bytes = 0;  // measure traversal, not memoization
    BfsService service(config);
    service.register_graph(graph);
    // Warm-up wave: first-touch page faults and pool spin-up stay out
    // of the timed region for every width alike.
    (void)service.distance(pool.front());

    Timer timer;
    std::vector<std::future<QueryResult>> inflight;
    inflight.reserve(static_cast<std::size_t>(queries));
    for (int i = 0; i < queries; ++i) {
      Query q;
      q.source = pool[static_cast<std::size_t>(i) % pool.size()];
      inflight.push_back(service.submit(q));
    }
    for (auto& f : inflight) {
      if (!f.get().ok()) {
        std::cerr << "query failed at width " << width << "\n";
        return 1;
      }
    }
    const double wall_ms = timer.elapsed_ms();
    const double qps = 1000.0 * queries / wall_ms;
    if (width == 1) baseline_qps = qps;
    const ServiceStats stats = service.stats();
    if (width == 8) {
      qps_w8 = qps;
      stats_w8_json = stats.to_json();
    }

    const std::size_t row = table.add_row();
    table.set(row, 0, static_cast<std::uint64_t>(width));
    table.set(row, 1, wall_ms, 1);
    table.set(row, 2, qps, 0);
    table.set(row, 3, stats.mean_batch_width(), 1);
    table.set(row, 4, stats.p50_latency_ms, 2);
    table.set(row, 5, stats.p99_latency_ms, 2);
    table.set(row, 6, qps / std::max(1e-9, baseline_qps), 2);

    ExperimentCell cell;
    cell.graph = w.name;
    cell.algorithm = "batch_w" + std::to_string(width);
    cell.threads = threads;
    cell.measurement.sources = queries;
    cell.measurement.mean_ms = wall_ms / queries;
    cell.measurement.min_ms = stats.p50_latency_ms;
    cell.measurement.max_ms = stats.p99_latency_ms;
    cell.measurement.mean_teps = qps;  // queries/s, see header comment
    cells.push_back(cell);

    qps_per_width.emplace_back(width, qps);
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: throughput climbs with W while the wave "
               "still fits the workers' cache-resident mask arrays — the "
               "shared scans amortize the graph over up to W answers. "
               "p99 rises with W (later queries wait for wider waves): "
               "the classic batching latency/throughput trade.\n";

  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("queries").value(queries);
  sw.key("threads").value(threads);
  sw.key("qps").begin_object();
  for (const auto& [width, qps] : qps_per_width) {
    sw.key("w" + std::to_string(width)).value(qps);
  }
  sw.end_object();
  sw.key("speedup_w8_vs_w1").value(qps_w8 / std::max(1e-9, baseline_qps));
  sw.key("stats_w8").raw(stats_w8_json);
  sw.end_object();
  const bool wrote =
      bench::maybe_write_json("service", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
