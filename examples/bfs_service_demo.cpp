// BFS-as-a-service: point queries batched into optimistic MS-BFS waves.
//
// Simulates a query front-end over a web-scale-ish RMAT graph: several
// client threads fire distance / path / level-set queries at a
// BfsService, whose replica coalesces queued sources into MS-BFS waves
// on one persistent worker pool and memoizes level arrays in a
// versioned LRU cache. Afterwards it prints the service's own accounting — batch
// width histogram, cache hit rate, and latency percentiles — the same
// numbers bench_service exports as JSON.
//
//   ./bfs_service_demo [scale] [threads] [clients] [trace.json]
//
// With a fourth argument (and an OPTIBFS_TELEMETRY=ON build) the run
// also writes a Chrome trace: per-query queue-wait and execute spans on
// the "scaleout.replica0" track, the MS-BFS wave/level spans beneath.
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "optibfs.hpp"
#include "telemetry/recorder.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 14;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  const int clients = argc > 3 ? std::atoi(argv[3]) : 4;
  const std::string trace_path = argc > 4 ? argv[4] : "";
  constexpr int kQueriesPerClient = 64;

  std::cout << "Graph: RMAT scale " << scale << " (Graph500 parameters)\n";
  const auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::rmat(scale, 16, /*seed=*/20130521)));

  ServiceConfig config;
  config.num_threads = threads;
  config.max_batch = 16;
  std::unique_ptr<telemetry::FlightRecorder> recorder;
  if (!trace_path.empty()) {
    recorder = std::make_unique<telemetry::FlightRecorder>();
    config.bfs.telemetry = recorder.get();
  }
  BfsService service(config);
  service.register_graph(graph);

  // A skewed popularity distribution over sources: repeats are common,
  // which is what makes both coalescing and the result cache pay off.
  const auto popular = sample_sources(*graph, 32, /*seed=*/7);

  std::cout << "Serving " << clients << " client threads x "
            << kQueriesPerClient << " queries on " << threads
            << " workers...\n";
  Timer wall;
  std::vector<std::thread> workers;
  std::vector<int> failures(static_cast<std::size_t>(clients), 0);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(c) * 97 + 13);
      // Two rounds: the first round's bursts coalesce into waves, the
      // second round's repeat sources come straight from the cache.
      for (int round = 0; round < 2; ++round) {
        std::vector<std::future<QueryResult>> inflight;
        for (int i = 0; i < kQueriesPerClient / 2; ++i) {
          Query q;
          q.source = popular[rng() % popular.size()];
          switch (rng() % 3) {
            case 0:
              q.kind = QueryKind::kDistance;
              q.target = static_cast<vid_t>(rng()) % graph->num_vertices();
              break;
            case 1:
              q.kind = QueryKind::kPath;
              q.target = static_cast<vid_t>(rng()) % graph->num_vertices();
              break;
            default:
              q.kind = QueryKind::kLevelSet;
              q.depth = static_cast<level_t>(1 + rng() % 3);
              break;
          }
          inflight.push_back(service.submit(q));
        }
        for (auto& f : inflight) {
          if (!f.get().ok()) ++failures[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_ms = wall.elapsed_ms();

  int failed = 0;
  for (const int f : failures) failed += f;
  const ServiceStats stats = service.stats();

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "\nServed " << stats.submitted << " queries in " << wall_ms
            << " ms (" << 1000.0 * static_cast<double>(stats.submitted) /
                              wall_ms
            << " q/s), " << failed << " failures\n";
  std::cout << "  MS-BFS waves: " << stats.waves
            << ", single-source dispatches: " << stats.single_dispatches
            << ", mean batch width: " << stats.mean_batch_width() << "\n";
  std::cout << "  cache hit rate: " << 100.0 * stats.cache_hit_rate()
            << "% (" << stats.cache_hits << " hits, " << stats.cache_entries
            << " entries, " << stats.cache_bytes / 1024 << " KiB)\n";
  std::cout << "  latency p50: " << stats.p50_latency_ms
            << " ms, p99: " << stats.p99_latency_ms << " ms\n";

  std::cout << "\nBatch width histogram (queries per dispatched wave):\n";
  for (std::size_t w = 1; w < stats.batch_histogram.size(); ++w) {
    if (stats.batch_histogram[w] == 0) continue;
    std::cout << "  width " << std::setw(2) << w << " | "
              << std::string(stats.batch_histogram[w], '#') << ' '
              << stats.batch_histogram[w] << '\n';
  }

  std::cout << "\nEvery wave shares its adjacency scans across all batched "
               "sources — the service turns a stream of point queries "
               "into the bulk traversal the optimistic engines are "
               "built for.\n";

  if (recorder) {
    if (recorder->write_chrome_trace(trace_path)) {
      std::cout << "\nwrote " << trace_path
                << " (load in ui.perfetto.dev)\n";
    } else {
      std::cerr << "\ncould not write " << trace_path
                << " (is this an OPTIBFS_TELEMETRY=OFF build?)\n";
      return 1;
    }
  }
  return failed == 0 ? 0 : 1;
}
