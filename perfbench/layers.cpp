#include "layers.hpp"

#include <algorithm>
#include <optional>

#include "core/bfs_serial.hpp"
#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/graph_io.hpp"
#include "kernels/kernel_registry.hpp"

namespace perfbench {

using namespace optibfs;
using optibfs::scaleout::ScaleoutConfig;
using optibfs::scaleout::ScaleoutService;
using optibfs::scaleout::ScaleoutStats;
using optibfs::scaleout::WatchEvent;

namespace {

constexpr int kThreads = 1;        ///< the services' team width
constexpr int kTeamThreads = 2;    ///< the parallel engine's pass
constexpr int kWaves = 3;           ///< MS-BFS waves of 64 sources
constexpr std::size_t kEngineSources = 16;
constexpr std::size_t kPathPairs = 16;
constexpr int kUpdateBatches = 16;
constexpr std::size_t kRecomputeSources = 8;
constexpr std::size_t kProbeQueries = 64;
constexpr int kProbeBatches = 2;

BFSOptions replay_options(int prefetch) {
  BFSOptions o;
  o.num_threads = kThreads;
  o.prefetch_distance = std::max(0, prefetch);
  return o;
}

ReorderPolicy reorder_policy_from_name(const std::string& name) {
  for (const ReorderPolicy p : {ReorderPolicy::kNone, ReorderPolicy::kDegreeSort,
                                ReorderPolicy::kHubCluster}) {
    if (name == reorder_policy_name(p)) return p;
  }
  return ReorderPolicy::kNone;
}

}  // namespace

void replay_layers(const ReplayInput& in, Tracer& tr, Outcome& out) {
  auto replay_span = tr.span("driver.replay");
  const ServiceStats& rs = in.resolved;

  // graph: CSR build and the serving reorder policy.
  {
    std::optional<CsrGraph> built;
    {
      auto s = tr.span("graph.build");
      built.emplace(CsrGraph::from_edges(*in.edges));
    }
  }
  const ReorderPolicy policy = reorder_policy_from_name(rs.reorder_policy);
  std::shared_ptr<const CsrGraph> reordered;
  {
    auto s = tr.span("graph.reorder");
    reordered = std::make_shared<const CsrGraph>(in.graph->reorder(policy));
  }

  // storage: open the binary CSR through the mmap backend.
  std::string path = in.binary_path;
  if (path.empty()) {
    io::write_binary_csr(in.scratch_path, *in.graph);
    path = in.scratch_path;
  }
  std::shared_ptr<const CsrGraph> mapped;
  {
    io::CsrLoadOptions load;
    load.storage = storage::StorageKind::kMmap;
    auto s = tr.span("storage.load");
    mapped = std::make_shared<const CsrGraph>(io::read_binary_csr(path, load));
  }
  const std::shared_ptr<const CsrGraph> serving =
      rs.storage_backend == "mmap" ? mapped
      : policy == ReorderPolicy::kNone ? in.graph
                                       : reordered;
  out.metric("graph.build_ms", tr.mean_ms("graph.build"), "ms");
  out.metric("graph.reorder_ms", tr.mean_ms("graph.reorder"), "ms");
  out.metric("storage.load_ms", tr.mean_ms("storage.load"), "ms");

  const std::vector<vid_t> wave_sources(
      in.sources.begin(),
      in.sources.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                               in.sources.size(), MsBfsSession::kMaxBatch)));

  // core: one MS-BFS session, as the service builds it.
  {
    BFSOptions w = replay_options(rs.wave_prefetch_distance);
    w.direction_mode = DirectionMode::kHybrid;
    MsBfsSession session(*serving, w);
    MsBfsResult res;
    std::uint64_t edges = 0, sources = 0;
    for (int i = 0; i < kWaves; ++i) {
      {
        auto s = tr.span("msbfs.wave");
        session.run(wave_sources, res);
      }
      edges += res.counters[telemetry::kEdgesScanned];
      sources += static_cast<std::uint64_t>(res.num_sources);
    }
    out.metric("msbfs.wave_ms", tr.mean_ms("msbfs.wave"), "ms");
    out.metric("msbfs.edges_per_source",
               static_cast<double>(edges) / static_cast<double>(sources),
               "edges");
  }

  // core + runtime: the batch-of-1 engine against the serial baseline.
  {
    auto engine = make_bfs(rs.single_source_engine, *serving,
                           replay_options(rs.prefetch_distance));
    BFSResult r;
    double levels = 0, scanned = 0, explored = 0, visited = 0, spins = 0;
    const std::size_t k = std::min(kEngineSources, in.sources.size());
    for (std::size_t i = 0; i < k; ++i) {
      {
        auto s = tr.span("engine.run");
        engine->run(in.sources[i], r);
      }
      levels += r.num_levels;
      scanned += static_cast<double>(r.edges_scanned);
    }
    engine.reset();
    for (std::size_t i = 0; i < k; ++i) {
      auto s = tr.span("engine.serial");
      bfs_serial(*serving, in.sources[i], r);
    }
    // The same sources on a two-thread team spread over every CPU: the
    // paper's duplicate exploration and the runtime's barrier waits
    // exist only with two or more threads.
    unpin();
    BFSOptions team = replay_options(rs.prefetch_distance);
    team.num_threads = kTeamThreads;
    engine = make_bfs(rs.single_source_engine, *serving, team);
    for (std::size_t i = 0; i < k; ++i) {
      {
        auto s = tr.span("engine.team_run");
        engine->run(in.sources[i], r);
      }
      explored += static_cast<double>(r.vertices_explored);
      visited += static_cast<double>(r.vertices_visited);
      spins += static_cast<double>(r.counters[telemetry::kBarrierSpins]);
    }
    engine.reset();
    pin_to_one_cpu();
    const double n = static_cast<double>(k);
    out.metric("engine.run_ms", tr.mean_ms("engine.run"), "ms");
    out.metric("engine.levels", levels / n, "levels");
    out.metric("engine.edges_scanned", scanned / n, "edges");
    out.metric("engine.dup_ratio", explored / visited, "ratio");
    out.metric("engine.serial_ms", tr.mean_ms("engine.serial"), "ms");
    out.metric("runtime.barrier_spins", spins / n, "count");
  }

  // service: rendering a path answer from a level array.
  {
    serving->transpose();
    const GraphSnapshot snap(serving, nullptr, 1);
    const std::size_t k = std::min(kPathPairs, in.path_pairs.size());
    for (std::size_t i = 0; i < k; ++i) {
      const auto [src, dst] = in.path_pairs[i];
      auto levels = std::make_shared<const std::vector<level_t>>(
          bfs_serial(*in.graph, src).level);
      Query q;
      q.kind = QueryKind::kPath;
      q.source = src;
      q.target = dst;
      auto s = tr.span("finalize.path");
      (void)finalize_levels_query(q, snap, 1, std::move(levels), false);
    }
    out.metric("finalize.path_us", 1000.0 * tr.mean_ms("finalize.path"), "us");
  }

  // dynamic: apply update batches and repair one cached level array.
  {
    DynamicGraph dyn(serving);
    IncrementalBfsEngine::Config config;
    config.bfs = replay_options(0);
    IncrementalBfsEngine engine(config);
    const vid_t src = in.sources.front();
    std::vector<level_t> level = bfs_serial(*in.graph, src).level;
    UpdateStream updates(serving->num_vertices(), mix(in.seed, 71));
    for (int b = 0; b < kUpdateBatches; ++b) {
      const UpdateBatch batch = updates.next();
      BatchSummary summary;
      {
        auto s = tr.span("dynamic.apply");
        summary = dyn.apply(batch);
      }
      const GraphSnapshot snap = dyn.snapshot();
      RepairOutcome repaired;
      {
        auto s = tr.span("dynamic.repair");
        repaired = engine.repair(snap, summary, src, level);
      }
      if (!repaired.repaired) engine.recompute(snap, src, level);
    }
    out.metric("dynamic.apply_ms", tr.mean_ms("dynamic.apply"), "ms");
    out.metric("dynamic.repair_ms", tr.mean_ms("dynamic.repair"), "ms");
  }

  // scaleout: a replica's from-scratch traversal.
  {
    IncrementalBfsEngine::Config config;
    config.bfs = replay_options(0);
    config.bfs.num_threads = 1;  // one thread per replica team
    IncrementalBfsEngine engine(config);
    std::vector<level_t> level;
    const DynamicGraph dyn(in.graph);
    const GraphSnapshot snap = dyn.snapshot();
    const std::size_t k = std::min(kRecomputeSources, in.sources.size());
    for (std::size_t i = 0; i < k; ++i) {
      auto s = tr.span("scaleout.recompute");
      engine.recompute(snap, in.sources[i], level);
    }
    out.metric("scaleout.recompute_ms", tr.mean_ms("scaleout.recompute"), "ms");
  }

  // kernels: CC, KCORE and PRDELTA on the kernel snapshot.
  {
    const BFSOptions k = replay_options(rs.kernel_prefetch_distance);
    struct Run {
      const char* kernel;
      const char* span;
      const char* metric;
    };
    const Run runs[] = {{"CC", "kernel.cc", "kernel.cc_ms"},
                        {"KCORE", "kernel.kcore", "kernel.kcore_ms"},
                        {"PRDELTA", "kernel.prdelta", "kernel.prdelta_ms"}};
    double rounds = 0, activations = 0, dups = 0;
    for (const Run& run : runs) {
      auto kernel = kernels::make_kernel(run.kernel, *in.kernel_graph, k);
      kernels::KernelResult kr;
      {
        auto s = tr.span(run.span);
        kernel->run(kr);
      }
      rounds += kr.rounds;
      activations += static_cast<double>(kr.counters[telemetry::kKernelActivations]);
      dups += static_cast<double>(kr.counters[telemetry::kKernelDupActivations]);
      out.metric(run.metric, tr.mean_ms(run.span), "ms");
    }
    out.metric("kernel.rounds", rounds, "rounds");
    out.metric("kernel.dup_activation_ratio",
               activations > 0 ? dups / activations : 0.0, "ratio");
  }
}

void add_service_metrics(const ServiceStats& s, const Tracer& tr, Outcome& out) {
  out.metric("service.register_ms", tr.mean_ms("service.register"), "ms");
  out.metric("service.submit_us", 1000.0 * tr.mean_ms("service.submit"), "us");
  out.metric("service.batch_width", s.mean_batch_width(), "sources");
  out.metric("service.cache_hit_ratio", s.cache_hit_rate(), "ratio");
  out.metric("service.prefetch_distance", s.prefetch_distance, "entries");
  out.metric("service.wave_prefetch_distance", s.wave_prefetch_distance, "entries");
  out.metric("service.kernel_prefetch_distance", s.kernel_prefetch_distance,
             "entries");
  out.metric("service.update_ms", tr.mean_ms("service.update"), "ms");
  out.metric("storage.map_mb", static_cast<double>(s.storage_map_bytes) / 1e6, "MB");
  out.metric("storage.major_faults",
             static_cast<double>(s.storage_major_fault_estimate), "count");
}

void add_scaleout_metrics(const ScaleoutStats& s, const Tracer& tr, Outcome& out) {
  out.metric("scaleout.submit_us", 1000.0 * tr.mean_ms("scaleout.submit"), "us");
  out.metric("scaleout.cache_hit_ratio",
             s.submitted == 0 ? 0.0
                              : static_cast<double>(s.cache_hits) /
                                    static_cast<double>(s.submitted),
             "ratio");
  out.metric("scaleout.shed", static_cast<double>(s.shed), "count");
  out.metric("scaleout.timed_out", static_cast<double>(s.timed_out), "count");
  out.metric("scaleout.overlapped_updates",
             static_cast<double>(s.updates_overlapped_reads), "count");
  out.metric("scaleout.watches_notified", static_cast<double>(s.watches_notified),
             "count");
}

bool scaleout_probe(std::shared_ptr<const CsrGraph> graph,
                    const std::vector<vid_t>& sources, std::uint64_t seed,
                    Tracer& tr, ScaleoutStats& stats) {
  ScaleoutConfig config;
  config.replicas = 2;
  config.threads_per_replica = 1;
  auto service = std::make_unique<ScaleoutService>(config);
  const vid_t n = graph->num_vertices();
  const auto tenant = service->register_tenant("probe", std::move(graph));
  Xoshiro256 rng(mix(seed, 81));
  // Two watched pairs per update batch, each shortcut by that batch, so
  // the watch path notifies too.
  std::vector<std::pair<vid_t, vid_t>> watched;
  for (int w = 0; w < 2 * kProbeBatches; ++w) {
    const auto s = static_cast<vid_t>(rng.next_below(n));
    const auto t = static_cast<vid_t>((s + 1 + rng.next_below(n - 1)) % n);
    watched.emplace_back(s, t);
    auto span = tr.span("scaleout.watch");
    service->watch_distance(tenant, s, t, [](const WatchEvent&) {});
  }
  std::vector<std::future<QueryResult>> answers;
  for (std::size_t i = 0; i < std::min(kProbeQueries, sources.size()); ++i) {
    Query q;
    q.source = sources[i] % n;
    q.target = static_cast<vid_t>(rng.next_below(n));
    auto s = tr.span("scaleout.submit");
    answers.push_back(service->submit(tenant, q));
  }
  bool ok = std::all_of(answers.begin(), answers.end(),
                        [](auto& a) { return await(a); });
  UpdateStream updates(n, mix(seed, 82));
  for (int b = 0; ok && b < kProbeBatches; ++b) {
    auto s = tr.span("scaleout.update");
    auto done = service->submit_updates(
        tenant, updates.next({watched[2 * b], watched[2 * b + 1]}));
    ok = await(done);
  }
  if (!ok) {
    (void)service.release();  // stuck: never join its threads
    return false;
  }
  stats = service->stats();
  return true;
}

}  // namespace perfbench
