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
// Each width runs kRepeats times, the width order alternating between
// ascending and descending so host drift over the sweep does not always
// favour one end; one run is a fraction of a second, and single runs of
// one tree read W = 64 anywhere from 4.9k to 12.5k q/s. The table and
// JSON report each width's median q/s with its quartiles; the latency
// and batch columns come from the width's median-q/s run, and a
// speedup is the median of the per-repeat ratios to W = 1.
//
// JSON: --json <path> or OPTIBFS_JSON=1 writes BENCH_service.json with
// one cell per W. The `mean_teps` column carries the median
// queries-per-second (a query is the service's unit of work, not an
// edge), `mean_ms` the median run's mean per-query wall share; the
// summary block records the median q/s and its IQR per width, the
// median W=8 speedup, and the median W=8 run's ServiceStats (batch
// histogram, latency percentiles) verbatim.
#include <algorithm>
#include <future>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "harness/graph500.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"
#include "service/bfs_service.hpp"

namespace {

struct Run {
  double wall_ms = 0.0;
  double qps = 0.0;
  optibfs::ServiceStats stats;
};

}  // namespace

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

  constexpr int kRepeats = 5;
  const std::vector<int> widths{1, 2, 4, 8, 16, 32, 64};
  std::cout << "  " << queries << " distance queries per width, "
            << kRepeats << " repeats, " << threads << " workers, cache off\n\n";

  // runs[i][r]: width widths[i], repeat r.
  std::vector<std::vector<Run>> runs(widths.size(),
                                     std::vector<Run>(kRepeats));
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t k = 0; k < widths.size(); ++k) {
      const std::size_t i = r % 2 == 0 ? k : widths.size() - 1 - k;
      ServiceConfig config;
      config.num_threads = threads;
      config.max_batch = widths[i];
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
      for (int q = 0; q < queries; ++q) {
        Query query;
        query.source = pool[static_cast<std::size_t>(q) % pool.size()];
        inflight.push_back(service.submit(query));
      }
      for (auto& f : inflight) {
        if (!f.get().ok()) {
          std::cerr << "query failed at width " << widths[i] << "\n";
          return 1;
        }
      }
      const double wall_ms = timer.elapsed_ms();
      runs[i][static_cast<std::size_t>(r)] = {
          wall_ms, 1000.0 * queries / wall_ms, service.stats()};
    }
  }

  // Per width: the order statistics of its q/s, the median of its
  // per-repeat ratios to W = 1, and its median-q/s run.
  std::vector<Graph500Stats> qps(widths.size());
  std::vector<double> speedup(widths.size());
  std::vector<const Run*> mid(widths.size());
  for (std::size_t i = 0; i < widths.size(); ++i) {
    std::vector<double> q, ratio;
    std::vector<std::size_t> order;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      q.push_back(runs[i][r].qps);
      ratio.push_back(runs[i][r].qps / runs[0][r].qps);
      order.push_back(r);
    }
    qps[i] = summarize_teps(q);
    speedup[i] = summarize_teps(ratio).median;
    std::nth_element(order.begin(), order.begin() + kRepeats / 2, order.end(),
                     [&](std::size_t a, std::size_t b) { return q[a] < q[b]; });
    mid[i] = &runs[i][order[kRepeats / 2]];
  }

  Table table({"W", "wall ms", "q/s", "q/s IQR", "mean width", "p50 ms",
               "p99 ms", "speedup"});
  std::vector<ExperimentCell> cells;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const std::size_t row = table.add_row();
    table.set(row, 0, static_cast<std::uint64_t>(widths[i]));
    table.set(row, 1, mid[i]->wall_ms, 1);
    table.set(row, 2, qps[i].median, 0);
    std::ostringstream iqr;
    iqr << std::fixed << std::setprecision(0) << qps[i].firstquartile << "-"
        << qps[i].thirdquartile;
    table.set(row, 3, iqr.str());
    table.set(row, 4, mid[i]->stats.mean_batch_width(), 1);
    table.set(row, 5, mid[i]->stats.p50_latency_ms, 2);
    table.set(row, 6, mid[i]->stats.p99_latency_ms, 2);
    table.set(row, 7, speedup[i], 2);

    ExperimentCell cell;
    cell.graph = w.name;
    cell.algorithm = "batch_w" + std::to_string(widths[i]);
    cell.threads = threads;
    cell.measurement.sources = queries;
    cell.measurement.mean_ms = mid[i]->wall_ms / queries;
    cell.measurement.min_ms = mid[i]->stats.p50_latency_ms;
    cell.measurement.max_ms = mid[i]->stats.p99_latency_ms;
    cell.measurement.mean_teps = qps[i].median;  // queries/s, see header
    cells.push_back(cell);
  }

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
  sw.key("repeats").value(kRepeats);
  sw.key("qps").begin_object();
  for (std::size_t i = 0; i < widths.size(); ++i) {
    sw.key("w" + std::to_string(widths[i])).value(qps[i].median);
  }
  sw.end_object();
  sw.key("qps_iqr").begin_object();
  for (std::size_t i = 0; i < widths.size(); ++i) {
    sw.key("w" + std::to_string(widths[i]))
        .begin_array()
        .value(qps[i].firstquartile)
        .value(qps[i].thirdquartile)
        .end_array();
  }
  sw.end_object();
  const std::size_t w8 = static_cast<std::size_t>(
      std::find(widths.begin(), widths.end(), 8) - widths.begin());
  sw.key("speedup_w8_vs_w1").value(speedup[w8]);
  sw.key("stats_w8").raw(mid[w8]->stats.to_json());
  sw.end_object();
  const bool wrote =
      bench::maybe_write_json("service", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
