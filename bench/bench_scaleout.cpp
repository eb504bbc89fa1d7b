// Scale-out front tier under open-loop load (DESIGN.md §4).
//
// A closed-loop driver (submit, wait, submit) can never overload a
// service — the offered rate self-throttles to the service rate, which
// is exactly the regime where admission control looks free. This bench
// drives ScaleoutService the way production traffic does: arrivals are
// a Poisson process at a fixed offered rate that does not care whether
// the fleet keeps up, sources follow a Zipf popularity law, and three
// tenants of different graph shapes share the fleet (50/30/20 mix)
// while a background updater applies edge batches and a handful of
// continuous queries ride along.
//
// Sweep: replica count x shedding on/off x offered load as a multiple
// of calibrated capacity (0.5 = underload, 1.0 = saturation, 2.0 =
// overload). Reported per cell: delivered completions, goodput
// (completions inside the deadline, per second), p50/p99 latency over
// completed queries, shed/timeout counts, and how many applies
// overlapped pinned readers. The cache is disabled so every admitted
// query pays a real traversal — we are measuring the dispatcher and
// the shedding policy, not memoization.
//
// The acceptance shape: goodput scales with replicas below saturation,
// and at 2x overload shedding-on beats shedding-off on both p99 (it
// refuses work that would miss anyway, so served queries wait less)
// and goodput (replica time is not burned on already-dead queries).
//
// `--smoke` runs one tiny verified cell pair (ctest wiring).
// JSON: --json <path> or OPTIBFS_JSON=1 writes BENCH_scaleout.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"
#include "harness/json_writer.hpp"
#include "harness/timing.hpp"
#include "runtime/rng.hpp"
#include "scaleout/scaleout_service.hpp"

namespace {

using namespace optibfs;
using namespace optibfs::scaleout;
using Clock = std::chrono::steady_clock;

struct Tenant {
  std::string name;
  std::shared_ptr<const CsrGraph> graph;
  double mix = 0.0;  ///< share of arrivals
};

/// Zipf-ish popularity over a pool of sources: rank r is drawn with
/// probability proportional to 1/(r+1)^s. Inverse-CDF table lookup.
class ZipfSources {
 public:
  ZipfSources(const CsrGraph& graph, std::size_t pool, double s,
              std::uint64_t seed) {
    Xoshiro256 rng(seed);
    const vid_t n = graph.num_vertices();
    sources_.reserve(pool);
    for (std::size_t i = 0; i < pool; ++i) {
      sources_.push_back(static_cast<vid_t>(rng.next_below(n)));
    }
    cdf_.reserve(pool);
    double total = 0.0;
    for (std::size_t r = 0; r < pool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  vid_t draw(Xoshiro256& rng) const {
    const double u =
        static_cast<double>(rng.next_below(1u << 30)) / (1u << 30);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t r = static_cast<std::size_t>(it - cdf_.begin());
    return sources_[std::min(r, sources_.size() - 1)];
  }

 private:
  std::vector<vid_t> sources_;
  std::vector<double> cdf_;
};

struct CellResult {
  int replicas = 0;
  bool shedding = false;
  double load_multiple = 0.0;
  double offered_qps = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t ok = 0;
  std::uint64_t good = 0;  ///< ok and within the deadline
  std::uint64_t shed = 0;
  std::uint64_t timed_out = 0;
  double goodput_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t overlapped_updates = 0;
  std::uint64_t update_batches = 0;
  std::uint64_t watch_notifications = 0;
};

double percentile(std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) / 100.0);
  return xs[idx];
}

/// Closed-loop mean service time of one replica (ms/query) over the
/// tenant mix — the capacity yardstick the open-loop sweep is scaled
/// against.
double calibrate_ms(const std::vector<Tenant>& tenants,
                    const std::vector<ZipfSources>& zipf,
                    int threads_per_replica, int probes) {
  ScaleoutConfig config;
  config.replicas = 1;
  config.threads_per_replica = threads_per_replica;
  config.cache_bytes = 0;
  ScaleoutService service(config);
  std::vector<TenantId> ids;
  for (const Tenant& t : tenants) {
    ids.push_back(service.register_tenant(t.name, t.graph));
  }
  Xoshiro256 rng(4242);
  // Warm-up: pool spin-up and first-touch faults stay uncounted.
  (void)service.distance(ids[0], zipf[0].draw(rng));
  Timer timer;
  for (int i = 0; i < probes; ++i) {
    const std::size_t t = static_cast<std::size_t>(i) % tenants.size();
    (void)service.distance(ids[t], zipf[t].draw(rng));
  }
  return timer.elapsed_ms() / probes;
}

CellResult run_cell(const std::vector<Tenant>& tenants,
                    const std::vector<ZipfSources>& zipf, int replicas,
                    int threads_per_replica, bool shedding,
                    double load_multiple, double offered_qps,
                    double deadline_ms, double duration_s, bool verify) {
  ScaleoutConfig config;
  config.replicas = replicas;
  config.threads_per_replica = threads_per_replica;
  config.shedding = shedding;
  config.cache_bytes = 0;
  config.max_queue = 1 << 16;  // overload shows up as lateness,
                                          // not as queue-full rejections
  ScaleoutService service(config);
  std::vector<TenantId> ids;
  for (const Tenant& t : tenants) {
    ids.push_back(service.register_tenant(t.name, t.graph));
  }

  if (verify) {
    // Spot-check each tenant against the serial oracle before any
    // update lands (the unit suite owns the post-update oracle).
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const QueryResult r = service.distance(ids[t], 1);
      if (!r.ok() ||
          *r.levels != bfs_serial(*tenants[t].graph, 1).level) {
        std::cerr << "verification failed for tenant " << tenants[t].name
                  << "\n";
        std::exit(1);
      }
    }
  }

  // Continuous queries riding the update stream. The updater below
  // periodically inserts (and later erases, via the rolling window)
  // edges between watched pairs, so the stream carries real distance
  // changes — watchers watch things that change.
  std::atomic<std::uint64_t> notified{0};
  std::vector<std::pair<vid_t, vid_t>> watch_pairs;
  Xoshiro256 wrng(17);
  for (int w = 0; w < 8; ++w) {
    const vid_t n = tenants[0].graph->num_vertices();
    vid_t ws = static_cast<vid_t>(wrng.next_below(n));
    vid_t wt = static_cast<vid_t>(wrng.next_below(n));
    if (ws == wt) wt = (wt + 1) % n;
    watch_pairs.emplace_back(ws, wt);
    (void)service.watch_distance(ids[0], ws, wt,
                                 [&](const WatchEvent&) { ++notified; });
  }

  // Background updater: small insert/erase batches round-robin across
  // tenants, throttled so updates are a light overlay on the query
  // load (the dynamic-graph benches own update throughput).
  std::atomic<bool> stop{false};
  std::thread updater([&] {
    Xoshiro256 rng(91);
    std::vector<std::vector<std::pair<vid_t, vid_t>>> inserted(
        tenants.size());
    std::size_t t = 0;
    std::size_t next_watch = 0;
    std::size_t rounds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const vid_t n = tenants[t].graph->num_vertices();
      UpdateBatch batch;
      for (int k = 0; k < 3; ++k) {
        const vid_t u = static_cast<vid_t>(rng.next_below(n));
        const vid_t v = static_cast<vid_t>(rng.next_below(n));
        if (u == v) continue;
        batch.insert(u, v);
        inserted[t].emplace_back(u, v);
      }
      // Every other watched-tenant batch shortcuts a watched pair; the
      // rolling-erase window tears the shortcut down again later, so
      // each watch sees distance drop and then recover.
      if (t == 0 && (rounds++ % 2 == 0) && !watch_pairs.empty()) {
        const auto [ws, wt] = watch_pairs[next_watch];
        next_watch = (next_watch + 1) % watch_pairs.size();
        batch.insert(ws, wt);
        inserted[t].emplace_back(ws, wt);
      }
      if (inserted[t].size() > 64) {
        const auto [u, v] = inserted[t].front();
        inserted[t].erase(inserted[t].begin());
        batch.erase(u, v);
      }
      try {
        (void)service.apply_updates(ids[t], std::move(batch));
      } catch (const std::exception&) {
        break;  // service shutting down under us
      }
      t = (t + 1) % tenants.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // Open-loop Poisson arrivals over the tenant mix: the generator
  // never waits for answers, only for the next arrival time.
  struct InFlight {
    std::future<QueryResult> future;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(static_cast<std::size_t>(offered_qps * duration_s) + 64);
  Xoshiro256 rng(1234);
  std::vector<double> mix_cdf;
  {
    double acc = 0.0;
    for (const Tenant& t : tenants) {
      acc += t.mix;
      mix_cdf.push_back(acc);
    }
  }
  const auto start = Clock::now();
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  auto next_arrival = start;
  while (next_arrival < end) {
    std::this_thread::sleep_until(next_arrival);
    const double su =
        static_cast<double>(rng.next_below(1u << 30)) / (1u << 30);
    std::size_t t = 0;
    while (t + 1 < tenants.size() && su > mix_cdf[t]) ++t;
    Query q;
    q.kind = QueryKind::kDistance;
    q.source = zipf[t].draw(rng);
    q.timeout_ms = deadline_ms;
    inflight.push_back({service.submit(ids[t], q)});
    const double u =
        (static_cast<double>(rng.next_below(1u << 30)) + 1.0) /
        ((1u << 30) + 1.0);
    next_arrival += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) * (1.0 / offered_qps)));
  }
  const double offered_wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  CellResult cell;
  cell.replicas = replicas;
  cell.shedding = shedding;
  cell.load_multiple = load_multiple;
  cell.arrivals = inflight.size();
  std::vector<double> latencies;
  latencies.reserve(inflight.size());
  for (InFlight& f : inflight) {
    const QueryResult r = f.future.get();
    switch (r.status) {
      case QueryStatus::kOk:
        ++cell.ok;
        latencies.push_back(r.latency_ms);
        if (r.latency_ms <= deadline_ms) ++cell.good;
        break;
      case QueryStatus::kShed:
        ++cell.shed;
        break;
      case QueryStatus::kTimeout:
        ++cell.timed_out;
        break;
      default:
        break;
    }
  }
  const double drain_wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  stop.store(true);
  updater.join();

  cell.offered_qps =
      static_cast<double>(cell.arrivals) / std::max(1e-9, offered_wall_s);
  cell.goodput_qps =
      static_cast<double>(cell.good) / std::max(1e-9, drain_wall_s);
  cell.p50_ms = percentile(latencies, 50.0);
  cell.p99_ms = percentile(latencies, 99.0);
  const ScaleoutStats stats = service.stats();
  cell.overlapped_updates = stats.updates_overlapped_reads;
  cell.update_batches = stats.update_batches;
  cell.watch_notifications = notified.load();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "Scale-out service under open-loop load",
      "extension (tenancy + replicas + shedding, DESIGN.md §4)");

  const double scale = workload_config_from_env().scale * (smoke ? 0.05 : 1.0);
  const auto dim = [&](vid_t base) {
    return std::max<vid_t>(64, static_cast<vid_t>(base * scale));
  };
  const auto make = [](EdgeList el) {
    return std::make_shared<const CsrGraph>(CsrGraph::from_edges(el));
  };
  std::vector<Tenant> tenants;
  tenants.push_back(
      {"social",
       make(gen::rmat(smoke ? 8 : 14, 8, 7)),
       0.5});
  tenants.push_back(
      {"web", make(gen::erdos_renyi(dim(20000), dim(20000) * 8, 11)), 0.3});
  tenants.push_back(
      {"mesh", make(gen::erdos_renyi(dim(8000), dim(8000) * 4, 13)), 0.2});
  for (const Tenant& t : tenants) {
    std::cout << "  tenant " << t.name << ": n=" << t.graph->num_vertices()
              << " m=" << t.graph->num_edges() << "  mix=" << t.mix << "\n";
  }

  const int threads_per_replica = smoke ? 2 : std::max(2, env_threads(8) / 4);
  std::vector<ZipfSources> zipf;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    zipf.emplace_back(*tenants[t].graph, 512, 0.9, 100 + t);
  }

  const double service_ms = calibrate_ms(tenants, zipf, threads_per_replica,
                                         smoke ? 8 : 64);
  const double capacity_1rep_qps = 1000.0 / std::max(1e-6, service_ms);
  const double deadline_ms = std::clamp(8.0 * service_ms, 2.0, 50.0);
  const double duration_s = smoke ? 0.25 : 1.0;
  std::cout << "\n  calibrated: " << service_ms
            << " ms/query closed-loop -> " << capacity_1rep_qps
            << " q/s per replica; deadline " << deadline_ms << " ms, "
            << duration_s << " s per cell\n\n";

  const std::vector<int> replica_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
  const std::vector<double> load_multiples =
      smoke ? std::vector<double>{2.0} : std::vector<double>{0.5, 1.0, 2.0};

  Table table({"replicas", "shed", "load", "offered q/s", "arrivals", "ok",
               "goodput q/s", "p50 ms", "p99 ms", "shed#", "timeout",
               "overlap"});
  std::vector<CellResult> results;
  std::vector<ExperimentCell> cells;
  for (const int replicas : replica_counts) {
    for (const bool shedding : {true, false}) {
      for (const double load : load_multiples) {
        const double offered =
            load * capacity_1rep_qps * static_cast<double>(replicas);
        CellResult cell =
            run_cell(tenants, zipf, replicas, threads_per_replica, shedding,
                     load, offered, deadline_ms, duration_s, smoke);
        results.push_back(cell);

        const std::size_t row = table.add_row();
        table.set(row, 0, static_cast<std::uint64_t>(cell.replicas));
        table.set(row, 1, std::string(cell.shedding ? "on" : "off"));
        table.set(row, 2, cell.load_multiple, 1);
        table.set(row, 3, cell.offered_qps, 0);
        table.set(row, 4, cell.arrivals);
        table.set(row, 5, cell.ok);
        table.set(row, 6, cell.goodput_qps, 0);
        table.set(row, 7, cell.p50_ms, 2);
        table.set(row, 8, cell.p99_ms, 2);
        table.set(row, 9, cell.shed);
        table.set(row, 10, cell.timed_out);
        table.set(row, 11, cell.overlapped_updates);

        ExperimentCell ec;
        ec.graph = "tenant_mix";
        std::ostringstream algo;
        algo << "r" << cell.replicas
             << (cell.shedding ? "_shed" : "_noshed") << "_x"
             << cell.load_multiple;
        ec.algorithm = algo.str();
        ec.threads = replicas * threads_per_replica;
        ec.measurement.sources = static_cast<int>(cell.arrivals);
        ec.measurement.mean_ms = cell.p50_ms;
        ec.measurement.min_ms = cell.p50_ms;
        ec.measurement.max_ms = cell.p99_ms;
        ec.measurement.mean_teps = cell.goodput_qps;  // goodput, not TEPS
        cells.push_back(ec);
      }
    }
  }

  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nExpected shape: goodput tracks offered load below "
               "saturation and scales with replicas; at 2x overload "
               "shedding protects both p99 (hopeless queries are refused, "
               "not queued) and goodput (replica time is spent only on "
               "queries that can still make their deadline). `overlap` > 0 "
               "shows apply_updates proceeding while replicas hold pinned "
               "snapshots — no fleet quiescence.\n";

  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("calibrated_service_ms").value(service_ms);
  sw.key("capacity_per_replica_qps").value(capacity_1rep_qps);
  sw.key("deadline_ms").value(deadline_ms);
  sw.key("duration_s").value(duration_s);
  sw.key("threads_per_replica").value(threads_per_replica);
  sw.key("cells").begin_array();
  for (const CellResult& c : results) {
    sw.begin_object();
    sw.key("replicas").value(c.replicas);
    sw.key("shedding").value(c.shedding);
    sw.key("load_multiple").value(c.load_multiple);
    sw.key("offered_qps").value(c.offered_qps);
    sw.key("arrivals").value(static_cast<std::uint64_t>(c.arrivals));
    sw.key("ok").value(static_cast<std::uint64_t>(c.ok));
    sw.key("good").value(static_cast<std::uint64_t>(c.good));
    sw.key("goodput_qps").value(c.goodput_qps);
    sw.key("p50_ms").value(c.p50_ms);
    sw.key("p99_ms").value(c.p99_ms);
    sw.key("shed").value(static_cast<std::uint64_t>(c.shed));
    sw.key("timed_out").value(static_cast<std::uint64_t>(c.timed_out));
    sw.key("updates_overlapped_reads")
        .value(static_cast<std::uint64_t>(c.overlapped_updates));
    sw.key("update_batches")
        .value(static_cast<std::uint64_t>(c.update_batches));
    sw.key("watch_notifications")
        .value(static_cast<std::uint64_t>(c.watch_notifications));
    sw.end_object();
  }
  sw.end_array();
  // Headline acceptance pair: p99 + goodput at 2x overload, shed on vs
  // off, for the widest fleet in the sweep.
  const int widest = replica_counts.back();
  const CellResult* on = nullptr;
  const CellResult* off = nullptr;
  for (const CellResult& c : results) {
    if (c.replicas == widest && c.load_multiple == load_multiples.back()) {
      (c.shedding ? on : off) = &c;
    }
  }
  if (on && off) {
    sw.key("overload_shedding_effect").begin_object();
    sw.key("replicas").value(widest);
    sw.key("p99_ms_shed_on").value(on->p99_ms);
    sw.key("p99_ms_shed_off").value(off->p99_ms);
    sw.key("goodput_shed_on").value(on->goodput_qps);
    sw.key("goodput_shed_off").value(off->goodput_qps);
    sw.end_object();
  }
  sw.end_object();
  bench::maybe_write_json("scaleout", argc, argv, cells, summary.str());
  return 0;
}
