// Scale-out front tier (src/scaleout/): multi-graph tenancy, replica
// engine teams, deadline-aware shedding, and continuous queries. The
// randomized multi-replica oracle and the overlap/teardown races here
// also ride the sanitize TSan sweep (tests/CMakeLists.txt), proving the
// concurrent-reader-epoch protocol — mutator applying version v+1 while
// replicas serve v — is clean under the paper's relaxed-atomic rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"
#include "harness/timing.hpp"
#include "kernels/reference.hpp"
#include "runtime/rng.hpp"
#include "scaleout/scaleout_service.hpp"

namespace optibfs::scaleout {
namespace {

std::shared_ptr<const CsrGraph> make_graph(const EdgeList& edges) {
  return std::make_shared<const CsrGraph>(CsrGraph::from_edges(edges));
}

EdgeList to_edge_list(vid_t n,
                      const std::set<std::pair<vid_t, vid_t>>& edges) {
  EdgeList el(n);
  el.reserve(edges.size());
  for (const auto& [u, v] : edges) el.add_unchecked(u, v);
  return el;
}

ScaleoutConfig small_config(int replicas = 2) {
  ScaleoutConfig config;
  config.replicas = replicas;
  config.threads_per_replica = 2;
  return config;
}

TEST(ScaleoutService, TenantsAreIsolatedAndMatchSerialOracle) {
  const EdgeList el_a = gen::erdos_renyi(400, 2400, 7);
  const EdgeList el_b = gen::erdos_renyi(300, 900, 11);
  ScaleoutService service(small_config());
  const TenantId a = service.register_tenant("a", make_graph(el_a));
  const TenantId b = service.register_tenant("b", make_graph(el_b));
  ASSERT_NE(a, b);

  const BFSResult oracle_a = bfs_serial(CsrGraph::from_edges(el_a), 5);
  const BFSResult oracle_b = bfs_serial(CsrGraph::from_edges(el_b), 5);

  const QueryResult ra = service.distance(a, 5, 77);
  const QueryResult rb = service.distance(b, 5, 77);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.distance, oracle_a.level[77]);
  EXPECT_EQ(rb.distance, oracle_b.level[77]);
  ASSERT_NE(ra.levels, nullptr);
  EXPECT_EQ(*ra.levels, oracle_a.level);
  ASSERT_NE(rb.levels, nullptr);
  EXPECT_EQ(*rb.levels, oracle_b.level);

  EXPECT_EQ(service.graph_version(a), 1u);
  EXPECT_EQ(service.graph_version(b), 1u);
  EXPECT_EQ(service.stats().tenants, 2u);
}

TEST(ScaleoutService, ManyConcurrentSubmittersAcrossTenants) {
  const EdgeList el = gen::rmat(9, 8, 31);
  ScaleoutConfig config = small_config(4);
  ScaleoutService service(config);
  std::vector<TenantId> tenants;
  for (int t = 0; t < 3; ++t) {
    tenants.push_back(
        service.register_tenant("t" + std::to_string(t), make_graph(el)));
  }
  const CsrGraph oracle_graph = CsrGraph::from_edges(el);
  const vid_t n = oracle_graph.num_vertices();

  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&, s] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(s));
      for (int i = 0; i < 40; ++i) {
        const TenantId tenant = tenants[rng.next_below(tenants.size())];
        const vid_t src = static_cast<vid_t>(rng.next_below(n));
        const vid_t dst = static_cast<vid_t>(rng.next_below(n));
        const QueryResult r = service.distance(tenant, src, dst);
        if (!r.ok() ||
            r.distance != bfs_serial(oracle_graph, src).level[dst]) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  EXPECT_EQ(failures.load(), 0);
  const ScaleoutStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 160u);
  EXPECT_EQ(stats.completed, 160u);
  EXPECT_GT(stats.replica_dispatches, 0u);
}

TEST(ScaleoutService, RandomizedMultiReplicaOracleWithWatches) {
  // The PR's oracle stress: apply_updates, point queries, and
  // continuous-query notifications interleave across 2 replicas;
  // every answer and every notification must match a serial recompute
  // at the version it reports.
  const vid_t kN = 300;
  const EdgeList el = gen::erdos_renyi(kN, 1200, 13);
  ScaleoutService service(small_config(2));
  const TenantId tenant = service.register_tenant("churn", make_graph(el));

  std::set<std::pair<vid_t, vid_t>> edges;
  for (const Edge& e : el.edges()) edges.emplace(e.src, e.dst);
  // versions[v - 1] = the tenant's edge set at epoch version v.
  std::vector<std::set<std::pair<vid_t, vid_t>>> versions{edges};

  std::mutex event_mutex;
  std::vector<WatchEvent> events;
  Xoshiro256 rng(99);
  std::vector<WatchTicket> tickets;
  std::vector<std::pair<vid_t, vid_t>> watched;
  for (int w = 0; w < 6; ++w) {
    const vid_t s = static_cast<vid_t>(rng.next_below(kN));
    const vid_t t = static_cast<vid_t>(rng.next_below(kN));
    watched.emplace_back(s, t);
    tickets.push_back(
        service.watch_distance(tenant, s, t, [&](const WatchEvent& ev) {
          const std::lock_guard<std::mutex> lock(event_mutex);
          events.push_back(ev);
        }));
    EXPECT_EQ(tickets.back().initial_distance,
              bfs_serial(CsrGraph::from_edges(el), s).level[t]);
  }

  struct Recorded {
    std::uint64_t version;
    vid_t source, target;
    level_t distance;
  };
  std::mutex record_mutex;
  std::vector<Recorded> recorded;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int q = 0; q < 2; ++q) {
    readers.emplace_back([&, q] {
      Xoshiro256 qrng(7 + static_cast<std::uint64_t>(q));
      while (!stop.load(std::memory_order_relaxed)) {
        const vid_t src = static_cast<vid_t>(qrng.next_below(kN));
        const vid_t dst = static_cast<vid_t>(qrng.next_below(kN));
        const QueryResult r = service.distance(tenant, src, dst);
        if (r.ok()) {
          const std::lock_guard<std::mutex> lock(record_mutex);
          recorded.push_back({r.graph_version, src, dst, r.distance});
        }
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    UpdateBatch batch;
    for (int k = 0; k < 4; ++k) {
      const vid_t u = static_cast<vid_t>(rng.next_below(kN));
      const vid_t v = static_cast<vid_t>(rng.next_below(kN));
      if (u == v) continue;
      batch.insert(u, v);
      edges.emplace(u, v);
    }
    for (int k = 0; k < 3 && !edges.empty(); ++k) {
      auto it = edges.begin();
      std::advance(it, static_cast<long>(rng.next_below(edges.size())));
      batch.erase(it->first, it->second);
      edges.erase(it);
    }
    const std::uint64_t version = service.apply_updates(tenant, batch);
    ASSERT_EQ(version, versions.size() + 1);
    versions.push_back(edges);
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();

  // Serial oracle per version, computed lazily per (version, source).
  std::vector<CsrGraph> oracle;
  oracle.reserve(versions.size());
  for (const auto& vset : versions) {
    oracle.push_back(CsrGraph::from_edges(to_edge_list(kN, vset)));
  }
  for (const Recorded& r : recorded) {
    ASSERT_GE(r.version, 1u);
    ASSERT_LE(r.version, oracle.size());
    EXPECT_EQ(r.distance,
              bfs_serial(oracle[r.version - 1], r.source).level[r.target])
        << "version " << r.version << " " << r.source << "->" << r.target;
  }
  ASSERT_FALSE(recorded.empty());

  // Every notification reports the true serial distance at its version,
  // and only actual transitions were delivered.
  for (const WatchEvent& ev : events) {
    ASSERT_GE(ev.version, 2u);
    ASSERT_LE(ev.version, oracle.size());
    EXPECT_NE(ev.old_distance, ev.new_distance);
    EXPECT_EQ(ev.new_distance,
              bfs_serial(oracle[ev.version - 1], ev.source).level[ev.target]);
  }
  // And the per-watch event chain ends at the true final distance.
  const CsrGraph& final_graph = oracle.back();
  for (std::size_t w = 0; w < tickets.size(); ++w) {
    level_t last = tickets[w].initial_distance;
    for (const WatchEvent& ev : events) {
      if (ev.watch != tickets[w].id) continue;
      EXPECT_EQ(ev.old_distance, last) << "watch " << w << " chain broken";
      last = ev.new_distance;
    }
    EXPECT_EQ(last,
              bfs_serial(final_graph, watched[w].first).level[watched[w].second])
        << "watch " << w << " missed a final transition";
  }
}

TEST(ScaleoutService, WatchFiresOnlyOnActualChange) {
  //   0 -> 1 -> 2 -> 3, watch dist(0, 3) = 3.
  EdgeList el(6);
  el.add_unchecked(0, 1);
  el.add_unchecked(1, 2);
  el.add_unchecked(2, 3);
  ScaleoutService service(small_config(1));
  const TenantId tenant = service.register_tenant("w", make_graph(el));

  std::vector<WatchEvent> events;
  const WatchTicket ticket =
      service.watch_distance(tenant, 0, 3, [&](const WatchEvent& ev) {
        events.push_back(ev);  // mutator thread; reads are post-apply
      });
  EXPECT_EQ(ticket.initial_distance, 3);

  // Irrelevant edge: distance 0->3 unchanged, no notification.
  UpdateBatch quiet;
  quiet.insert(4, 5);
  service.apply_updates(tenant, quiet);
  EXPECT_TRUE(events.empty());
  EXPECT_GE(service.stats().watches_unchanged, 1u);

  // Shortcut 0->3: distance drops 3 -> 1, one notification.
  UpdateBatch shortcut;
  shortcut.insert(0, 3);
  const std::uint64_t v3 = service.apply_updates(tenant, shortcut);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].old_distance, 3);
  EXPECT_EQ(events[0].new_distance, 1);
  EXPECT_EQ(events[0].version, v3);
  EXPECT_EQ(events[0].source, 0u);
  EXPECT_EQ(events[0].target, 3u);

  // Cut both routes: unreachable, reported as kUnvisited.
  UpdateBatch cut;
  cut.erase(0, 3);
  cut.erase(2, 3);
  service.apply_updates(tenant, cut);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].old_distance, 1);
  EXPECT_EQ(events[1].new_distance, kUnvisited);

  // After unwatch, further changes stay silent.
  EXPECT_TRUE(service.unwatch(tenant, ticket.id));
  EXPECT_FALSE(service.unwatch(tenant, ticket.id));
  UpdateBatch restore;
  restore.insert(0, 3);
  service.apply_updates(tenant, restore);
  EXPECT_EQ(events.size(), 2u);
}

TEST(ScaleoutService, ThrowingWatchCallbackDoesNotStallUpdates) {
  //   0 -> 1 -> 2 -> 3, two watches on dist(0, 3); the first throws.
  EdgeList el(6);
  el.add_unchecked(0, 1);
  el.add_unchecked(1, 2);
  el.add_unchecked(2, 3);
  ScaleoutService service(small_config(1));
  const TenantId tenant = service.register_tenant("w", make_graph(el));

  int thrown = 0;  // mutator thread; read after apply_updates returns
  std::vector<WatchEvent> delivered;
  service.watch_distance(tenant, 0, 3, [&](const WatchEvent&) {
    ++thrown;
    throw std::runtime_error("callback failure");
  });
  service.watch_distance(tenant, 0, 3, [&](const WatchEvent& ev) {
    delivered.push_back(ev);
  });

  // The throwing callback fails neither its batch's apply_updates nor
  // the second watch on the same batch.
  UpdateBatch shortcut;
  shortcut.insert(0, 3);
  std::uint64_t v2 = 0;
  ASSERT_NO_THROW(v2 = service.apply_updates(tenant, shortcut));
  EXPECT_EQ(thrown, 1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].new_distance, 1);
  EXPECT_EQ(delivered[0].version, v2);

  // Nor does it stop later batches.
  UpdateBatch cut;
  cut.erase(0, 3);
  cut.erase(2, 3);
  std::uint64_t v3 = 0;
  ASSERT_NO_THROW(v3 = service.apply_updates(tenant, cut));
  EXPECT_EQ(v3, v2 + 1);
  EXPECT_EQ(thrown, 2);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].new_distance, kUnvisited);
  EXPECT_EQ(service.stats().watches_notified, 4u);
}

TEST(ScaleoutService, DeregistrationRacesInFlightQueries) {
  // The submit-vs-teardown race, tenant flavour: queries in flight while
  // the tenant is deregistered must all resolve — kOk (claim already on
  // a replica) or kStaleGraph (flushed / lost the admission race) — and
  // updates for the dead tenant fail with the documented message.
  const EdgeList el = gen::erdos_renyi(2000, 16000, 3);
  ScaleoutConfig config = small_config(2);
  config.cache_bytes = 0;  // every query runs a real traversal
  ScaleoutService service(config);

  for (int round = 0; round < 5; ++round) {
    const TenantId tenant =
        service.register_tenant("ephemeral", make_graph(el));
    std::vector<std::future<QueryResult>> futures;
    std::atomic<bool> go{false};
    std::thread submitter([&] {
      go.store(true);
      for (int i = 0; i < 64; ++i) {
        Query q;
        q.kind = QueryKind::kDistance;
        q.source = static_cast<vid_t>(i % 2000);
        futures.push_back(service.submit(tenant, q));
      }
    });
    while (!go.load()) std::this_thread::yield();
    service.deregister_tenant(tenant);
    submitter.join();
    for (auto& f : futures) {
      const QueryResult r = f.get();  // must not hang
      EXPECT_TRUE(r.status == QueryStatus::kOk ||
                  r.status == QueryStatus::kStaleGraph ||
                  r.status == QueryStatus::kInvalid)
          << "status " << static_cast<int>(r.status);
    }

    UpdateBatch batch;
    batch.insert(0, 1);
    try {
      service.apply_updates(tenant, std::move(batch));
      FAIL() << "update for a deregistered tenant must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "ScaleoutService::apply_updates: no such tenant");
    }
  }
  EXPECT_EQ(service.stats().tenants, 0u);
}

TEST(ScaleoutService, ShutdownFlushResolvesEveryFuture) {
  const EdgeList el = gen::erdos_renyi(3000, 24000, 5);
  std::vector<std::future<QueryResult>> queries;
  std::vector<std::future<std::uint64_t>> updates;
  {
    ScaleoutConfig config = small_config(1);
    config.cache_bytes = 0;
    ScaleoutService service(config);
    const TenantId tenant = service.register_tenant("t", make_graph(el));
    for (int i = 0; i < 128; ++i) {
      Query q;
      q.kind = QueryKind::kDistance;
      q.source = static_cast<vid_t>(i);
      queries.push_back(service.submit(tenant, q));
    }
    for (int i = 0; i < 8; ++i) {
      UpdateBatch batch;
      batch.insert(static_cast<vid_t>(i), static_cast<vid_t>(i + 1));
      updates.push_back(service.submit_updates(tenant, std::move(batch)));
    }
  }  // destructor: drain threads, flush leftovers
  for (auto& f : queries) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.status == QueryStatus::kOk ||
                r.status == QueryStatus::kShutdown)
        << "status " << static_cast<int>(r.status);
  }
  for (auto& f : updates) {
    try {
      f.get();  // applied before shutdown won the race: fine
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "ScaleoutService::apply_updates: service shut down");
    }
  }
}

TEST(ScaleoutService, KernelMemoSharedAcrossReplicas) {
  // Satellite: the per-version kernel memo is replica-aware. Two
  // replicas hammering kComponents for the same tenant version must
  // converge on exactly one CC kernel run.
  const EdgeList el = gen::erdos_renyi(1000, 4000, 21);
  ScaleoutConfig config = small_config(2);
  config.max_batch = 16;  // one claim holds at most 16 distinct sources
  ScaleoutService service(config);
  const TenantId tenant = service.register_tenant("k", make_graph(el));

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 64; ++i) {
    Query q;
    q.kind = QueryKind::kComponents;
    q.source = static_cast<vid_t>(i);
    futures.push_back(service.submit(tenant, q));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const ScaleoutStats stats = service.stats();
  EXPECT_EQ(stats.kernel_queries, 64u);
  EXPECT_EQ(stats.kernel_recomputes, 1u)
      << "replicas must share one memo per version, not one each";
  // Every query beyond the first (memo-filling) claim is a memo hit;
  // the miss cost is bounded by one claim, whatever its width.
  EXPECT_GE(stats.kernel_cache_hits, 64u - 16u);

  // A new version's memo carries the shared answer across the batch:
  // the next kernel query fills it once, by carrying, not recomputing.
  UpdateBatch batch;
  batch.insert(0, 999);
  service.apply_updates(tenant, batch);
  EdgeList merged = el;
  merged.add_unchecked(0, 999);
  const auto cc_ref = kernels::cc_reference(CsrGraph::from_edges(merged));
  Query q;
  q.kind = QueryKind::kComponents;
  q.source = 0;
  const QueryResult after = service.query(tenant, q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.component, cc_ref[0]);
  EXPECT_EQ(after.component_size,
            static_cast<std::uint64_t>(
                std::count(cc_ref.begin(), cc_ref.end(), cc_ref[0])));
  EXPECT_EQ(service.stats().kernel_recomputes, 1u);
  EXPECT_EQ(service.stats().kernel_carries, 1u);
}

TEST(ScaleoutService, QuotaRejectsBeyondBurst) {
  EdgeList el(4);
  el.add_unchecked(0, 1);
  ScaleoutService service(small_config(1));
  TenantQuota quota;
  quota.rate_qps = 0.001;  // effectively no refill within the test
  quota.burst = 3.0;
  const TenantId tenant =
      service.register_tenant("metered", make_graph(el), quota);

  int ok = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const QueryResult r = service.distance(tenant, 0, 1);
    if (r.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, QueryStatus::kQuotaRejected);
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(rejected, 7);
  EXPECT_EQ(service.stats().quota_rejected, 7u);

  // An unmetered sibling is unaffected by the noisy neighbour.
  const TenantId open = service.register_tenant("open", make_graph(el));
  EXPECT_TRUE(service.distance(open, 0, 1).ok());
}

TEST(ScaleoutService, SheddingProtectsDeadlinesUnderOverload) {
  const EdgeList el = gen::erdos_renyi(60000, 600000, 17);
  const auto graph = make_graph(el);

  const auto run = [&](bool shedding) {
    ScaleoutConfig config = small_config(1);
    config.shedding = shedding;
    config.cache_bytes = 0;  // every query is a full traversal
    config.max_batch = 32;
    ScaleoutService service(config);
    const TenantId tenant = service.register_tenant("t", graph);
    // Prime the execution-time EWMA with deadline-less queries, and
    // measure per-query cost so the burst deadline scales with the
    // machine (a fixed small deadline can expire before the replica
    // even claims on a slow/oversubscribed sanitizer box, turning
    // every query into kTimeout and starving the shedding path).
    Timer prime;
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(service.distance(tenant, static_cast<vid_t>(i)).ok());
    }
    const double per_query_ms = std::max(0.5, prime.elapsed_ms() / 6.0);
    // Overload burst: slack covers ~4 queries, the claim holds 32 —
    // far more predicted work than the deadline admits.
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 64; ++i) {
      Query q;
      q.kind = QueryKind::kDistance;
      q.source = static_cast<vid_t>(100 + i);
      q.timeout_ms = 4.0 * per_query_ms;
      futures.push_back(service.submit(tenant, q));
    }
    std::uint64_t ok = 0, shed = 0, timed_out = 0;
    for (auto& f : futures) {
      const QueryResult r = f.get();
      if (r.status == QueryStatus::kOk) ++ok;
      if (r.status == QueryStatus::kShed) ++shed;
      if (r.status == QueryStatus::kTimeout) ++timed_out;
    }
    EXPECT_EQ(ok + shed + timed_out, 64u);
    EXPECT_EQ(service.stats().shed, shed);
    return std::pair<std::uint64_t, std::uint64_t>(shed, timed_out);
  };

  // The shed-on side asserts a timing property (some query is alive at
  // claim time yet predicted hopeless); retry a couple of times so a
  // pathological scheduling stall on a loaded CI box can't fail it.
  std::uint64_t shed_on = 0;
  for (int attempt = 0; attempt < 3 && shed_on == 0; ++attempt) {
    shed_on = run(true).first;
  }
  const auto [shed_off, timeout_off] = run(false);
  EXPECT_GT(shed_on, 0u) << "overloaded burst must shed hopeless deadlines";
  EXPECT_EQ(shed_off, 0u) << "shedding off must never answer kShed";
  (void)timeout_off;
}

TEST(ScaleoutService, UpdatesOverlapPinnedReaders) {
  // The acceptance claim: apply_updates proceeds while replicas hold
  // pinned snapshots — kUpdatesOverlappedReads counts applies that saw
  // >= 1 pinned roster slot, and under sustained concurrent load it
  // must fire.
  const EdgeList el = gen::erdos_renyi(20000, 160000, 29);
  ScaleoutConfig config = small_config(2);
  config.cache_bytes = 0;  // keep replicas busy traversing
  ScaleoutService service(config);
  const TenantId tenant = service.register_tenant("hot", make_graph(el));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(11 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        (void)service.distance(tenant,
                               static_cast<vid_t>(rng.next_below(20000)));
      }
    });
  }
  Xoshiro256 rng(5);
  for (int round = 0; round < 200; ++round) {
    UpdateBatch batch;
    batch.insert(static_cast<vid_t>(rng.next_below(20000)),
                 static_cast<vid_t>(rng.next_below(20000)));
    service.apply_updates(tenant, batch);
    if (round % 50 == 0 &&
        service.stats().updates_overlapped_reads > 0) {
      break;  // claim proven; no need to grind on
    }
  }
  stop.store(true);
  for (std::thread& th : readers) th.join();
  const ScaleoutStats stats = service.stats();
  EXPECT_GT(stats.updates_overlapped_reads, 0u)
      << "no apply ever overlapped a pinned reader";
  EXPECT_GT(stats.update_batches, 0u);
}

TEST(ScaleoutService, CacheMigratesAcrossVersionsPerTenant) {
  const EdgeList el = gen::erdos_renyi(500, 3000, 19);
  ScaleoutService service(small_config(1));
  const TenantId tenant = service.register_tenant("c", make_graph(el));

  // Populate the cache, then apply a batch: rows must be revalidated or
  // repaired, and post-update answers must match the serial oracle.
  for (vid_t s = 0; s < 8; ++s) ASSERT_TRUE(service.distance(tenant, s).ok());
  std::set<std::pair<vid_t, vid_t>> edges;
  for (const Edge& e : el.edges()) edges.emplace(e.src, e.dst);
  UpdateBatch batch;
  batch.insert(0, 499);
  edges.emplace(0, 499);
  batch.erase(el.edges()[0].src, el.edges()[0].dst);
  edges.erase({el.edges()[0].src, el.edges()[0].dst});
  service.apply_updates(tenant, batch);

  const CsrGraph oracle = CsrGraph::from_edges(to_edge_list(500, edges));
  for (vid_t s = 0; s < 8; ++s) {
    const QueryResult r = service.distance(tenant, s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.levels, bfs_serial(oracle, s).level) << "source " << s;
  }
  const ScaleoutStats stats = service.stats();
  EXPECT_GT(stats.results_repaired + stats.results_revalidated, 0u);

  // Second query for a migrated source hits the cache at the front door.
  const QueryResult again = service.distance(tenant, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.cache_hit);
}

TEST(ScaleoutService, ReplaceGraphServesNewGraphUnderSameId) {
  ScaleoutService service(small_config(1));
  const TenantId tenant =
      service.register_tenant("swap", make_graph(gen::path(8)));
  const WatchTicket ticket =
      service.watch_distance(tenant, 0, 7, [](const WatchEvent&) {});
  EXPECT_EQ(ticket.initial_distance, 7);
  EXPECT_EQ(service.distance(tenant, 0, 7).distance, 7);

  // Same id, next version, new edge set; the old graph's watches go.
  EXPECT_EQ(service.replace_graph(tenant, make_graph(gen::complete(8))), 2u);
  EXPECT_EQ(service.graph_version(tenant), 2u);
  const QueryResult r = service.distance(tenant, 0, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.distance, 1);
  EXPECT_EQ(r.graph_version, 2u);
  EXPECT_EQ(service.stats().watches, 0u);
  EXPECT_FALSE(service.unwatch(tenant, ticket.id));

  UpdateBatch batch;
  batch.erase(0, 7);
  EXPECT_EQ(service.apply_updates(tenant, batch), 3u);
  EXPECT_EQ(service.distance(tenant, 0, 7).distance, 2);

  EXPECT_THROW(service.replace_graph(tenant + 999, make_graph(gen::path(4))),
               std::invalid_argument);
  EXPECT_THROW(service.replace_graph(tenant, nullptr), std::invalid_argument);
}

TEST(ScaleoutService, ValidationAndErrorPaths) {
  EdgeList el(4);
  el.add_unchecked(0, 1);
  ScaleoutService service(small_config(1));
  EXPECT_THROW(service.register_tenant("null", nullptr),
               std::invalid_argument);
  const TenantId tenant = service.register_tenant("v", make_graph(el));

  EXPECT_EQ(service.distance(tenant, 99).status, QueryStatus::kInvalid);
  EXPECT_EQ(service.distance(tenant + 999, 0).status, QueryStatus::kInvalid);
  EXPECT_THROW(service.watch_distance(tenant, 0, 99, [](const WatchEvent&) {}),
               std::invalid_argument);
  EXPECT_THROW(
      service.watch_distance(tenant + 999, 0, 1, [](const WatchEvent&) {}),
      std::invalid_argument);
  EXPECT_FALSE(service.unwatch(tenant, 12345));
  EXPECT_FALSE(service.deregister_tenant(tenant + 999));
  EXPECT_EQ(service.graph_version(tenant + 999), 0u);
}

}  // namespace
}  // namespace optibfs::scaleout
