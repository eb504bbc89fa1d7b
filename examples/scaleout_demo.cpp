// Scale-out front tier: tenants, replica teams, continuous queries.
//
// Runs a miniature multi-tenant deployment of ScaleoutService
// (DESIGN.md section 4): two tenants with different quotas, client
// threads firing mixed queries through the replica fleet, a metered
// tenant driven past its token bucket, and an update stream applied
// *while* replicas are mid-query — with watch_distance subscriptions
// reporting every real distance change the batches cause. Afterwards
// it prints the service's own accounting: shed/quota/overlap/watch
// counters and latency percentiles, the same numbers bench_scaleout
// exports as JSON.
//
//   ./scaleout_demo [scale] [replicas] [clients]
#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "optibfs.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  using namespace optibfs::scaleout;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 12;
  const int replicas = argc > 2 ? std::atoi(argv[2]) : 2;
  const int clients = argc > 3 ? std::atoi(argv[3]) : 4;
  constexpr int kQueriesPerClient = 48;

  const auto social = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::rmat(scale, 8, /*seed=*/7)));
  const auto web = std::make_shared<const CsrGraph>(CsrGraph::from_edges(
      gen::erdos_renyi(social->num_vertices(), 4 * social->num_vertices(),
                       /*seed=*/11)));

  ScaleoutConfig config;
  config.replicas = replicas;
  config.threads_per_replica = 2;
  config.shedding = true;
  ScaleoutService service(config);

  TenantQuota metered;
  metered.rate_qps = 200;
  metered.burst = 16;
  const TenantId t_social = service.register_tenant("social", social);
  const TenantId t_web = service.register_tenant("web", web, metered);
  std::cout << "Fleet: " << replicas << " replica teams x "
            << config.threads_per_replica << " threads, 2 tenants ("
            << social->num_vertices() << " vertices each)\n";

  // Standing queries: notified as a byproduct of the update batches
  // below, only when the watched distance actually changes. Targets sit
  // at distance >= 2 from the source, so the shortcut edges the update
  // stream inserts are guaranteed to move each watched distance.
  std::mutex print_mutex;
  std::atomic<int> notifications{0};
  std::vector<vid_t> watched;
  const auto baseline = bfs_serial(*social, 0).level;
  for (vid_t t = 1; t < social->num_vertices() && watched.size() < 4; ++t) {
    if (baseline[t] == 1 || baseline[t] == 0) continue;
    watched.push_back(t);
    (void)service.watch_distance(t_social, 0, t, [&](const WatchEvent& e) {
      ++notifications;
      std::lock_guard<std::mutex> lock(print_mutex);
      std::cout << "  [watch] dist(" << e.source << "," << e.target << ") "
                << e.old_distance << " -> " << e.new_distance
                << " at version " << e.version << "\n";
    });
  }

  // Client threads fire mixed queries at both tenants while the main
  // thread streams update batches into the social graph: the fleet
  // answers version v queries concurrently with the apply of v+1.
  std::vector<std::thread> workers;
  std::atomic<int> ok{0}, quota_hits{0};
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::mt19937 rng(static_cast<unsigned>(c) * 131 + 7);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        Query q;
        q.kind = QueryKind::kDistance;
        q.source = static_cast<vid_t>(rng() % 64);
        q.target = static_cast<vid_t>(rng()) % social->num_vertices();
        const TenantId tenant = (rng() % 3 == 0) ? t_web : t_social;
        const QueryResult r = service.query(tenant, q);
        if (r.ok()) ++ok;
        if (r.status == QueryStatus::kQuotaRejected) ++quota_hits;
      }
    });
  }

  std::mt19937 urng(91);
  for (int b = 0; b < 12; ++b) {
    UpdateBatch batch;
    // Random churn plus a shortcut straight to a watched target, so
    // the subscriptions above have something real to report.
    batch.insert(static_cast<vid_t>(urng() % social->num_vertices()),
                 static_cast<vid_t>(urng() % social->num_vertices()));
    if (!watched.empty()) {
      batch.insert(0, watched[static_cast<std::size_t>(b) % watched.size()]);
    }
    const std::uint64_t version = service.apply_updates(t_social,
                                                        std::move(batch));
    (void)version;
  }
  for (auto& w : workers) w.join();

  const ScaleoutStats stats = service.stats();
  std::cout << std::fixed << std::setprecision(2);
  std::cout << "\nServed " << stats.completed << "/" << stats.submitted
            << " queries (" << ok.load() << " ok, " << quota_hits.load()
            << " quota-rejected on the metered tenant)\n";
  std::cout << "  dispatch: " << stats.replica_dispatches
            << " replica claims, cache hits " << stats.cache_hits
            << ", shed " << stats.shed << "\n";
  std::cout << "  updates: " << stats.update_batches << " batches, "
            << stats.updates_overlapped_reads
            << " applied while replicas held pinned snapshots\n";
  std::cout << "  watches: " << notifications.load() << " notifications ("
            << stats.watch_repairs << " repairs, " << stats.watch_recomputes
            << " recomputes, " << stats.watches_unchanged
            << " batches left them unchanged)\n";
  std::cout << "  latency p50 " << stats.p50_latency_ms << " ms, p99 "
            << stats.p99_latency_ms << " ms over " << stats.latency_samples
            << " samples\n";

  std::cout << "\nThe tenants share one process and one cache but never "
               "one result row; updates published new epochs while the "
               "fleet kept reading old ones — no locks added to any "
               "traversal to make that true.\n";

  const bool sane = stats.submitted > 0 && ok.load() > 0 &&
                    stats.update_batches >= 12 && notifications.load() > 0;
  return sane ? 0 : 1;
}
