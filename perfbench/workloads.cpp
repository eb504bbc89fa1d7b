// The three ledger workloads. Each drives optibfs through its public API
// from this one driver thread, on one CPU shared with the service's
// scheduler and its one-thread team (main pins the process), checks a
// seeded sample of its answers against serial references, and reports
// the end-to-end metrics or, traced, the per-layer ones. Why each
// workload exists is in README.md.
#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <iostream>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "core/bfs_serial.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/workloads.hpp"
#include "layers.hpp"
#include "scaleout/scaleout_stats.hpp"
#include "service/bfs_service.hpp"

namespace perfbench {

using namespace optibfs;
using scaleout::ScaleoutStats;

namespace {

/// Every workload's graph is fixed (generated from the graph suite's
/// default seed); --seed drives the traffic: source pools, query mixes,
/// arrivals, update batches, sampled checks. With the graphs seeded too,
/// seed-to-seed spread was mostly generator variance: 20% on
/// social-serve's update latency (its O(n) degree refresh follows the
/// RMAT instance) and 30% on the mesh's.
const std::uint64_t kGraphSeed = WorkloadConfig{}.seed;

/// The services' team width. Two-thread teams on two vCPUs of this
/// shared host waited at every barrier for whichever vCPU the host had
/// taken: the mesh's throughput halved at 15% steal (README.md).
constexpr int kThreads = 1;
constexpr int kSetups = 5;          ///< setup_s is the median of these
constexpr double kSetupLimitS = 60.0;
constexpr double kReplayLimitS = 120.0;
constexpr int kProbeBatches = 32;   ///< update probe after a read-only load
/// Probe batches are spaced so each reaches an idle scheduler, as
/// graph-analytics' updates do (one after each ~160 ms round).
/// Sent back to back, the figure swung 0.75-1.5 ms between runs of one
/// seed, with whether the scheduler thread had gone to sleep yet.
constexpr auto kProbeGap = std::chrono::milliseconds(50);
constexpr std::size_t kRecheck = 8;
constexpr std::uint64_t kRoundSampleStride = 40;  ///< rounds 0, 40, 80, ...

/// 60% distance(s,t), 30% path(s,t), 10% level-set(s, depth 1..3).
Query mixed_query(Xoshiro256& rng, vid_t source, vid_t n) {
  Query q;
  q.source = source;
  const std::uint64_t r = rng.next_below(10);
  if (r < 6) {
    q.kind = QueryKind::kDistance;
    q.target = static_cast<vid_t>(rng.next_below(n));
  } else if (r < 9) {
    q.kind = QueryKind::kPath;
    q.target = static_cast<vid_t>(rng.next_below(n));
  } else {
    q.kind = QueryKind::kLevelSet;
    q.depth = static_cast<level_t>(1 + rng.next_below(3));
  }
  return q;
}

struct Flight {
  std::future<QueryResult> answer;
  Query query;
  std::uint64_t id = 0;
  Clock::time_point scheduled;
  Clock::time_point sent;
  double sent_cpu = 0.0;  ///< cpu_ms() at the send
};

/// Everything one run measured, untraced (a) and, when traced, again
/// with spans on (b).
struct Run {
  std::vector<double> setup_s, traced_setup_s;
  Load a, b;
  double rss_a = 0.0, rss_b = 0.0;
  std::uint64_t extra_attempted = 0;  ///< probe updates and re-checks
  std::uint64_t extra_failed = 0;
  std::uint64_t stalls = 0;
};

double finite_or(double v, double fallback) {
  return std::isfinite(v) ? v : fallback;
}

void add_e2e(Outcome& out, double setup_s, const Load& l, double rss) {
  // A latency that failures or a stall made infinite reads as the
  // phase's length, at least the stall timeout: finite, and far beyond
  // any healthy value.
  const double failed_ms =
      1000.0 * std::max(l.elapsed_s, std::chrono::duration<double>(kStallTimeout).count());
  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", rss, "MB");
  out.metric("throughput_per_s", l.throughput(), "1/s");
  out.metric("p50_ms", finite_or(l.latency_quantile(0.5), failed_ms), "ms");
  out.metric("p90_ms", finite_or(l.latency_quantile(0.9), failed_ms), "ms");
  out.metric("update_p50_ms",
             l.stalled || l.update_ms.empty() ? failed_ms
                                              : finite_or(median(l.update_ms), failed_ms),
             "ms");
}

/// Counts, provenance and, depending on the mode, the end-to-end
/// metrics or the tracing overhead (traced minus untraced, per metric).
void finish(const Args& args, const Run& run, const ServiceStats* stats,
            Outcome& out) {
  out.attempted += run.a.attempted + run.b.attempted + run.extra_attempted;
  out.failed += run.a.failed + run.b.failed + run.extra_failed;
  out.stamp("workload", args.workload);
  out.stamp("seed", static_cast<double>(args.seed));
  out.stamp("seconds", args.seconds);
  out.stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  out.stamp("cpu", static_cast<double>(pinned_cpu()));
  out.stamp("driver.steal_pct", run.a.steal_pct);
  out.stamp("driver.cpu_share", run.a.cpu_share);
  out.stamp("driver.late_ms", mean(run.a.late_ms));
  out.stamp("stalls", static_cast<double>(run.stalls));
  out.stamp("stranded", static_cast<double>(run.a.stranded + run.b.stranded));
  out.stamp("operations", static_cast<double>(run.a.attempted));
  if (stats != nullptr) {
    out.stamp("single_source_engine", stats->single_source_engine);
    out.stamp("reorder_policy", stats->reorder_policy);
    out.stamp("storage_backend", stats->storage_backend);
    out.stamp("prefetch_provenance", stats->prefetch_provenance);
    out.stamp("prefetch_distance", stats->prefetch_distance);
    out.stamp("wave_prefetch_distance", stats->wave_prefetch_distance);
    out.stamp("kernel_prefetch_distance", stats->kernel_prefetch_distance);
  }
  if (!args.trace) {
    add_e2e(out, median(run.setup_s), run.a, run.rss_a);
    return;
  }
  Outcome untraced, traced;
  add_e2e(untraced, median(run.setup_s), run.a, run.rss_a);
  add_e2e(traced, median(run.traced_setup_s), run.b, run.rss_b);
  for (std::size_t i = 0; i < untraced.metrics.size(); ++i) {
    out.metric("trace_overhead." + untraced.metrics[i].name,
               traced.metrics[i].value - untraced.metrics[i].value,
               untraced.metrics[i].unit);
  }
  out.metric("runtime.stalls", static_cast<double>(run.stalls), "count");
  out.metric("driver.late_ms", mean(run.b.late_ms), "ms");
  out.metric("driver.steal_pct", run.b.steal_pct, "%");
}

void add_self_times(const Tracer& tr, Outcome& out) {
  const auto self = tr.self_ms_by_layer();
  for (const char* layer :
       {"graph", "storage", "service", "core", "dynamic", "scaleout", "kernels"}) {
    const auto it = self.find(layer);
    out.metric(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second,
               "ms");
  }
}

/// A stall ends the run: report what completed, the stranded operations
/// as failed, and exit without joining the stuck service. Wherever it
/// struck (the timed phase, the update probe, the re-checks, a service
/// probe), the whole run reads as stalled.
[[noreturn]] void end_stalled(const Args& args, Run& run, Outcome& out) {
  run.stalls = 1;
  run.a.stalled = run.b.stalled = true;
  // However few of its phases ran, a stalled load's answers count over
  // the whole nominal sending period.
  run.a.seconds = run.b.seconds = args.seconds;
  if (run.rss_a == 0.0) run.rss_a = peak_rss_mb();  // stalled before the load ended
  if (run.rss_b == 0.0) run.rss_b = peak_rss_mb();
  std::cerr << "stall: ending the run with the stranded operations failed\n";
  finish(args, run, nullptr, out);
  emit_and_exit(out);
}

/// Sets one service up and returns it; its setup time, on the CPU
/// clock, goes to `setup_s`. `setup` builds the service and warms every
/// path the load uses. A setup that hangs ends the run as stalled,
/// counted at its wall-clock time (a stuck team spends no CPU time) and
/// as one failed operation.
template <class Setup>
auto timed_setup(const Args& args, Run& run, Tracer& tr, Outcome& out,
                 std::vector<double>& setup_s, const Setup& setup) {
  const auto t0 = Clock::now();
  const double c0 = cpu_ms();
  Watchdog dog(kSetupLimitS, args.workload + " setup", [&] {
    setup_s.push_back(ms_since(t0) / 1000.0);
    ++run.extra_attempted;
    ++run.extra_failed;
    end_stalled(args, run, out);
  });
  auto span = tr.span("driver.setup");
  auto service = setup();
  setup_s.push_back((cpu_ms() - c0) / 1000.0);
  return service;
}

/// The timed phase, spread over kSetups fresh services: once the
/// previous service is gone, `prepare()` makes the input again (untimed),
/// a service is set up, and `serve(service, load, seconds)` runs
/// seconds / kSetups of the load on it. What differs from one service
/// to the next (the prefetch tuner's picks, where its memory landed) is
/// averaged inside the run instead of across runs. Returns the last
/// service. Spans are on in the traced pass only.
template <class Prepare, class Setup, class Serve>
auto setup_and_serve(const Args& args, Run& run, Tracer& tr, Outcome& out, bool traced,
                     const Prepare& prepare, const Setup& setup, const Serve& serve) {
  Load& load = traced ? run.b : run.a;
  decltype(setup()) service;
  for (int k = 0; k < kSetups; ++k) {
    service.reset();
    prepare();
    tr.set_enabled(traced);
    service = timed_setup(args, run, tr, out, traced ? run.traced_setup_s : run.setup_s,
                          setup);
    serve(*service, load, args.seconds / kSetups);
    tr.set_enabled(false);
    if (load.stalled) end_stalled(args, run, out);
  }
  (traced ? run.rss_b : run.rss_a) = peak_rss_mb();
  return service;
}

/// Verifies sampled BFS-typed answers; a wrong answer fails the run.
void check_samples(std::vector<Sample>& samples, Mirror& mirror, Outcome& out) {
  std::sort(samples.begin(), samples.end(), [](const Sample& x, const Sample& y) {
    return std::tie(x.result.graph_version, x.query.source) <
           std::tie(y.result.graph_version, y.query.source);
  });
  std::shared_ptr<const CsrGraph> graph;
  vid_t source = kInvalidVertex;
  std::vector<level_t> ref;
  for (const Sample& s : samples) {
    auto g = mirror.at(s.result.graph_version);
    if (g != graph || s.query.source != source) {
      graph = g;
      source = s.query.source;
      ref = bfs_serial(*graph, source).level;
    }
    const std::string err = check_levels_answer(s.query, s.result, ref, *graph);
    if (!err.empty()) {
      out.correct = false;
      ++out.failed;
      out.errors.push_back(err);
    }
  }
  out.stamp("checked_answers", static_cast<double>(samples.size()));
}

/// Closed loop over a BfsService: keep `window` queries in flight, send
/// the next one as soon as a slot frees, for `seconds`, then drain.
/// Adds to `load`.
void closed_loop(BfsService& service, Tracer& tr, std::size_t window,
                 double seconds, const std::function<Query()>& next,
                 Sampler& sampler, std::uint64_t& next_id, Load& load) {
  const CpuTimes cpu0 = read_cpu_times(pinned_cpu());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const double c0 = cpu_ms();
  std::deque<Flight> flights;
  std::deque<Clock::time_point> slot_free(window, start);
  double last = c0;
  auto reap = [&](Flight& f, Clock::time_point seen, double seen_cpu) {
    QueryResult r = f.answer.get();
    slot_free.push_back(seen);
    last = seen_cpu;
    if (!r.ok()) {
      load.fail();
      return;
    }
    load.ok(seen_cpu - f.sent_cpu);
    tr.record("driver.request", f.sent, seen, f.id);
    sampler.offer(f.id, f.query, std::move(r));
  };
  for (;;) {
    while (flights.size() < window && Clock::now() < end) {
      Flight f;
      f.query = next();
      f.id = next_id++;
      f.scheduled = slot_free.front();
      slot_free.pop_front();
      f.sent = Clock::now();
      f.sent_cpu = cpu_ms();
      {
        auto s = tr.span("service.submit", f.id);
        f.answer = service.submit(f.query);
      }
      load.late_ms.push_back(ms_between(f.scheduled, f.sent));
      if (is_ready(f.answer)) {
        reap(f, Clock::now(), cpu_ms());  // answered from the cache at submit
      } else {
        flights.push_back(std::move(f));
      }
    }
    if (flights.empty()) break;
    if (!await(flights.front().answer)) {
      load.stalled = true;
      load.stranded = flights.size();
      last = cpu_ms();
      for (std::size_t i = 0; i < flights.size(); ++i) load.fail();
      break;
    }
    const auto seen = Clock::now();
    const double seen_cpu = cpu_ms();
    for (auto it = flights.begin(); it != flights.end();) {
      if (is_ready(it->answer)) {
        reap(*it, seen, seen_cpu);
        it = flights.erase(it);
      } else {
        ++it;
      }
    }
  }
  load.add_phase(seconds, (last - c0) / 1000.0, (cpu_ms() - c0) / 1000.0,
                 ms_since(start) / 1000.0, cpu0, read_cpu_times(pinned_cpu()));
}

/// Blocking apply_updates through the future, so a stall is detected.
bool apply_update(BfsService& service, Tracer& tr, UpdateBatch batch,
                  Mirror& mirror, Load& load) {
  const UpdateBatch copy = batch;
  const double t0 = cpu_ms();
  std::future<std::uint64_t> done;
  bool ok = false;
  {
    auto s = tr.span("service.update");
    done = service.submit_updates(std::move(batch));
    ok = await(done);
  }
  if (!ok) {
    load.stalled = true;
    return false;
  }
  load.update_ms.push_back(cpu_ms() - t0);
  mirror.log(done.get(), copy);
  return true;
}

/// Update latency for a read-only workload: batches shaped like the
/// other workloads' (8 inserts plus rolling deletes) through
/// apply_updates, from submit until the new version is visible.
void update_probe(BfsService& service, Tracer& tr, UpdateStream& updates,
                  Mirror& mirror, Load& load, Run& run) {
  for (int b = 0; b < kProbeBatches; ++b) {
    std::this_thread::sleep_for(kProbeGap);
    ++run.extra_attempted;
    if (!apply_update(service, tr, updates.next(), mirror, load)) {
      ++run.extra_failed;
      return;
    }
  }
}

/// Re-asks recently answered sources after the update probe, so
/// answers served on the CSR-plus-delta snapshot are checked too.
bool recheck_recent(BfsService& service, const std::vector<vid_t>& recent,
                    Xoshiro256& rng, vid_t n, std::vector<Sample>& samples,
                    Run& run) {
  for (const vid_t s : recent) {
    Query q;
    q.source = s;
    q.target = static_cast<vid_t>(rng.next_below(n));
    auto answer = service.submit(q);
    ++run.extra_attempted;
    if (!await(answer)) {
      ++run.extra_failed;
      return false;
    }
    QueryResult r = answer.get();
    if (!r.ok()) {
      ++run.extra_failed;
      continue;
    }
    r.levels.reset();
    samples.push_back({q, std::move(r)});
  }
  return true;
}

std::string out_path(const Args& args, const std::string& stem,
                     const std::string& ext) {
  return args.out_dir + "/" + args.workload + "-" + stem + "-seed" +
         std::to_string(args.seed) + "-" + std::to_string(::getpid()) + ext;
}

void write_spans(const Args& args, const Tracer& tr) {
  tr.write_json(args.out_dir + "/spans-" + args.workload + "-seed" +
                std::to_string(args.seed) + ".json");
}

// ---------------------------------------------------------------------
// social-serve and mesh-single: closed loops over one BfsService.

struct ServeSpec {
  std::size_t window = 64;
  std::uint64_t sample_stride = 256;
  std::string binary_path;  ///< mesh-single registers this file
};

// The driver holds no graph of its own through setup and the timed
// phase, so peak_rss_mb measures the program: the generated input lives
// through setup only (mesh-single's only until its file is written), and
// the CSR the checks, probes and replay use is built after the peak is
// read, from the input generated again.
Outcome serve_workload(const Args& args, const std::function<EdgeList()>& make_edges,
                       const ServeSpec& spec) {
  Outcome out;
  Run run;
  Tracer tr(false);
  std::optional<EdgeList> edges(make_edges());
  const vid_t n = edges->num_vertices();
  if (!spec.binary_path.empty()) {
    io::write_binary_csr(spec.binary_path, CsrGraph::from_edges(*edges));
    const int fd = ::open(spec.binary_path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
    edges.reset();
  }

  Xoshiro256 pool_rng(mix(args.seed, 2));
  std::vector<vid_t> pool(8192);
  for (vid_t& s : pool) s = static_cast<vid_t>(pool_rng.next_below(n));
  Xoshiro256 rng(mix(args.seed, 3));
  std::vector<vid_t> stream;
  std::vector<std::pair<vid_t, vid_t>> paths;
  std::deque<vid_t> recent;
  const std::function<Query()> next = [&] {
    const vid_t s = pool[rng.next_below(pool.size())];
    const Query q = mixed_query(rng, s, n);
    if (stream.size() < MsBfsSession::kMaxBatch) stream.push_back(s);
    if (q.kind == QueryKind::kPath && paths.size() < 64) {
      paths.emplace_back(s, q.target);
    }
    recent.push_back(s);
    if (recent.size() > kRecheck) recent.pop_front();
    return q;
  };

  ServiceConfig config;
  config.num_threads = kThreads;
  const auto setup = [&] {
    auto service = std::make_unique<BfsService>(config);
    if (spec.binary_path.empty()) {
      std::shared_ptr<const CsrGraph> g;
      {
        auto s = tr.span("graph.build");
        g = std::make_shared<const CsrGraph>(CsrGraph::from_edges(*edges));
      }
      edges.reset();
      auto s = tr.span("service.register");
      service->register_graph(std::move(g));
    } else {
      auto s = tr.span("service.register");
      service->register_graph_file(spec.binary_path);
    }
    // Warm-up: a full-width wave mixing every query kind, then one
    // query of each kind on its own (the batch-of-1 engine).
    Xoshiro256 warm(mix(args.seed, 4));
    std::vector<std::future<QueryResult>> answers;
    for (int i = 0; i < MsBfsSession::kMaxBatch; ++i) {
      answers.push_back(
          service->submit(mixed_query(warm, static_cast<vid_t>(warm.next_below(n)), n)));
    }
    for (auto& a : answers) a.wait();
    for (const QueryKind kind :
         {QueryKind::kDistance, QueryKind::kPath, QueryKind::kLevelSet}) {
      Query q = mixed_query(warm, static_cast<vid_t>(warm.next_below(n)), n);
      q.kind = kind;
      if (q.target == kInvalidVertex) q.target = 0;
      if (q.depth == 0) q.depth = 2;
      (void)service->query(q);
    }
    return service;
  };
  const auto prepare = [&] {
    if (spec.binary_path.empty() && !edges) edges.emplace(make_edges());
  };
  Mirror mirror;
  Sampler sampler(args.seed, spec.sample_stride, 48);
  std::uint64_t ids = 0;
  const auto serve = [&](BfsService& s, Load& load, double seconds) {
    closed_loop(s, tr, spec.window, seconds, next, sampler, ids, load);
  };
  auto service = setup_and_serve(args, run, tr, out, false, prepare, setup, serve);
  if (args.trace) {
    service.reset();
    service = setup_and_serve(args, run, tr, out, true, prepare, setup, serve);
  }

  const ServiceStats stats = service->stats();
  service.reset();
  edges.emplace(make_edges());
  const auto graph = std::make_shared<const CsrGraph>(CsrGraph::from_edges(*edges));
  mirror.start(graph);

  // The update probe runs on a second service of the same config that
  // has served nothing yet. On the loaded one every update would first
  // repair the ~130 level arrays the result cache holds, which on the
  // mesh costs 0.1-1 s per batch and keeps falling as repairs shortcut
  // the graph: a figure too unsteady to bound.
  {
    Watchdog dog(kSetupLimitS, args.workload + " probe registration",
                 [&] { end_stalled(args, run, out); });
    service = std::make_unique<BfsService>(config);
    if (spec.binary_path.empty()) {
      service->register_graph(graph);
    } else {
      service->register_graph_file(spec.binary_path);
    }
  }
  UpdateStream updates(n, mix(args.seed, 5));
  update_probe(*service, tr, updates, mirror, run.a, run);
  if (args.trace) {
    tr.set_enabled(true);
    update_probe(*service, tr, updates, mirror, run.b, run);
    tr.set_enabled(false);
  }
  if (run.a.stalled || run.b.stalled) end_stalled(args, run, out);
  std::vector<Sample>& samples = sampler.samples();
  Xoshiro256 recheck_rng(mix(args.seed, 6));
  if (!recheck_recent(*service, std::vector<vid_t>(recent.begin(), recent.end()),
                      recheck_rng, n, samples, run)) {
    end_stalled(args, run, out);
  }

  if (args.trace) {
    tr.set_enabled(true);
    add_service_metrics(stats, tr, out);
    ScaleoutStats sstats;
    if (!scaleout_probe(graph, stream, args.seed, tr, sstats)) {
      end_stalled(args, run, out);
    }
    add_scaleout_metrics(sstats, tr, out);
    out.metric("dynamic.rows_repaired", static_cast<double>(stats.results_repaired),
               "count");
    out.metric("dynamic.rows_revalidated",
               static_cast<double>(stats.results_revalidated), "count");
    out.metric("dynamic.cone_recomputes", static_cast<double>(stats.cone_recomputes),
               "count");
    out.metric("kernel.recomputes_per_round", 0.0, "count");
    {
      Watchdog dog(kReplayLimitS, args.workload + " layer replay",
                   [&] { end_stalled(args, run, out); });
      ReplayInput in;
      in.edges = &*edges;
      in.graph = graph;
      in.binary_path = spec.binary_path;
      in.scratch_path = out_path(args, "replay", ".bin");
      in.resolved = stats;
      in.sources = stream;
      in.path_pairs = paths;
      in.kernel_graph = graph;
      in.seed = args.seed;
      replay_layers(in, tr, out);
      ::unlink(in.scratch_path.c_str());
    }
    add_self_times(tr, out);
    write_spans(args, tr);
  }
  check_samples(samples, mirror, out);
  finish(args, run, &stats, out);
  return out;
}

// ---------------------------------------------------------------------
// graph-analytics: closed loop of update + CC / KCORE / PRDELTA rounds.

/// One service's share of the rounds: its update log and its sampled
/// rounds, checked against snapshots of that service's own versions.
struct ServedRounds {
  Mirror mirror;
  std::vector<KernelRound> sampled;
};

/// Closed loop of rounds on one service for `seconds`; adds to `load`.
void analytics_rounds(BfsService& service, Tracer& tr, double seconds,
                      UpdateStream& updates, Xoshiro256& rng, vid_t n,
                      ServedRounds& served, std::uint64_t& round_id, Load& load) {
  const CpuTimes cpu0 = read_cpu_times(pinned_cpu());
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const double c0 = cpu_ms();
  Clock::time_point last = start;
  double last_cpu = c0;
  while (Clock::now() < end) {
    const std::uint64_t id = round_id++;
    const auto t0 = Clock::now();
    const double t0_cpu = cpu_ms();
    load.late_ms.push_back(ms_between(last, t0));
    if (!apply_update(service, tr, updates.next(), served.mirror, load)) {
      load.fail();
      break;
    }
    KernelRound round;
    round.cc_vertex = static_cast<vid_t>(rng.next_below(n));
    round.core_vertex = static_cast<vid_t>(rng.next_below(n));
    std::future<QueryResult> cc, core, rank;
    {
      auto s = tr.span("service.submit", id);
      Query q;
      q.kind = QueryKind::kComponents;
      q.source = round.cc_vertex;
      cc = service.submit(q);
      q.kind = QueryKind::kCoreNumber;
      q.source = round.core_vertex;
      core = service.submit(q);
      q.kind = QueryKind::kRankTopK;
      q.source = 0;
      q.topk = round.topk;
      rank = service.submit(q);
    }
    if (!await(cc) || !await(core) || !await(rank)) {
      load.stalled = true;
      load.fail();
      break;
    }
    round.cc = cc.get();
    round.core = core.get();
    round.rank = rank.get();
    last = Clock::now();
    last_cpu = cpu_ms();
    tr.record("driver.request", t0, last, id);
    if (!round.cc.ok() || !round.core.ok() || !round.rank.ok()) {
      load.fail();
      continue;
    }
    load.ok(last_cpu - t0_cpu);
    if (id % kRoundSampleStride == 0) {
      round.version = round.cc.graph_version;
      served.sampled.push_back(std::move(round));
    }
  }
  load.add_phase(seconds, (last_cpu - c0) / 1000.0, (cpu_ms() - c0) / 1000.0,
                 ms_since(start) / 1000.0, cpu0, read_cpu_times(pinned_cpu()));
}

Outcome graph_analytics(const Args& args) {
  Outcome out;
  Run run;
  Tracer tr(false);
  // As in serve_workload, the input lives through setup only and the
  // driver's own CSR is built after the peak RSS is read.
  const auto make_edges = [] { return gen::rmat(15, 8, mix(kGraphSeed, 41)); };
  std::optional<EdgeList> edges(make_edges());
  const vid_t n = edges->num_vertices();
  ServiceConfig config;
  config.num_threads = kThreads;
  // The warm-up round's batch; every setup applies the same one.
  const UpdateBatch warm_batch = UpdateStream(n, mix(args.seed, 42)).next();
  std::uint64_t warm_version = 0;

  const auto setup = [&] {
    auto service = std::make_unique<BfsService>(config);
    std::shared_ptr<const CsrGraph> g;
    {
      auto s = tr.span("graph.build");
      g = std::make_shared<const CsrGraph>(CsrGraph::from_edges(*edges));
    }
    edges.reset();
    {
      auto s = tr.span("service.register");
      service->register_graph(std::move(g));
    }
    // Warm-up: one full round (an update, then each kernel).
    warm_version = service->apply_updates(warm_batch);
    (void)service->components_of(0);
    (void)service->core_number(0);
    (void)service->rank_topk(10);
    return service;
  };
  const auto prepare = [&] {
    if (!edges) edges.emplace(make_edges());
  };
  // Each service gets its own update stream: its rolling deletes must
  // name edges that service inserted.
  std::deque<ServedRounds> served;
  Xoshiro256 rng(mix(args.seed, 44));
  std::uint64_t rounds = 0, last_rounds = 0;
  const auto serve = [&](BfsService& s, Load& load, double seconds) {
    ServedRounds& mine = served.emplace_back();
    mine.mirror.log(warm_version, warm_batch);
    UpdateStream updates(n, mix(args.seed, 100 + served.size()));
    const std::uint64_t first = rounds;
    analytics_rounds(s, tr, seconds, updates, rng, n, mine, rounds, load);
    last_rounds = rounds - first;
  };
  auto service = setup_and_serve(args, run, tr, out, false, prepare, setup, serve);
  if (args.trace) {
    service.reset();
    service = setup_and_serve(args, run, tr, out, true, prepare, setup, serve);
  }
  const ServiceStats stats = service->stats();
  edges.emplace(make_edges());
  const auto graph = std::make_shared<const CsrGraph>(CsrGraph::from_edges(*edges));

  // Kernel answers against the kernels/reference oracles.
  std::size_t checked = 0;
  for (ServedRounds& mine : served) {
    mine.mirror.start(graph);
    std::sort(mine.sampled.begin(), mine.sampled.end(),
              [](const KernelRound& x, const KernelRound& y) { return x.version < y.version; });
    for (const KernelRound& round : mine.sampled) {
      const auto g = mine.mirror.at(round.version);
      const BFSOptions defaults;
      const std::string err =
          check_kernel_round(round, *g, defaults.pr_damping, defaults.pr_epsilon);
      ++checked;
      if (!err.empty()) {
        out.correct = false;
        ++out.failed;
        out.errors.push_back(err);
      }
    }
  }
  out.stamp("checked_rounds", static_cast<double>(checked));

  if (args.trace) {
    tr.set_enabled(true);
    add_service_metrics(stats, tr, out);
    std::vector<vid_t> sources;
    Xoshiro256 src_rng(mix(args.seed, 45));
    for (int i = 0; i < MsBfsSession::kMaxBatch; ++i) {
      sources.push_back(static_cast<vid_t>(src_rng.next_below(n)));
    }
    ScaleoutStats sstats;
    if (!scaleout_probe(graph, sources, args.seed, tr, sstats)) {
      end_stalled(args, run, out);
    }
    add_scaleout_metrics(sstats, tr, out);
    out.metric("dynamic.rows_repaired", static_cast<double>(stats.results_repaired),
               "count");
    out.metric("dynamic.rows_revalidated",
               static_cast<double>(stats.results_revalidated), "count");
    out.metric("dynamic.cone_recomputes", static_cast<double>(stats.cone_recomputes),
               "count");
    out.metric("kernel.recomputes_per_round",
               static_cast<double>(stats.kernel_recomputes) /
                   static_cast<double>(last_rounds + 1),  // + warm-up
               "count");
    {
      Watchdog dog(kReplayLimitS, "graph-analytics layer replay",
                   [&] { end_stalled(args, run, out); });
      ReplayInput in;
      in.edges = &*edges;
      in.graph = graph;
      in.scratch_path = out_path(args, "replay", ".bin");
      in.resolved = stats;
      in.sources = sources;
      for (std::size_t i = 0; i + 1 < sources.size() && in.path_pairs.size() < 16;
           i += 2) {
        in.path_pairs.emplace_back(sources[i], sources[i + 1]);
      }
      in.kernel_graph = served.back().mirror.at(service->graph_version());
      in.seed = args.seed;
      replay_layers(in, tr, out);
      ::unlink(in.scratch_path.c_str());
    }
    add_self_times(tr, out);
    write_spans(args, tr);
  }

  finish(args, run, &stats, out);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"social-serve", "mesh-single",
                                                 "graph-analytics"};
  return names;
}

Outcome run_workload(const Args& args) {
  if (args.workload == "social-serve") {
    return serve_workload(args, [] { return gen::rmat(17, 16, mix(kGraphSeed, 1)); },
                          ServeSpec{});
  }
  if (args.workload == "mesh-single") {
    // The repository's canonical freescale stand-in (graph/workloads).
    ServeSpec spec;
    spec.window = 1;
    spec.sample_stride = 64;
    spec.binary_path = out_path(args, "graph", ".bin");
    Outcome out = serve_workload(
        args, [] { return gen::circuit_like(150, 800, 60000, kGraphSeed ^ 0xF5); }, spec);
    ::unlink(spec.binary_path.c_str());
    return out;
  }
  return graph_analytics(args);
}

}  // namespace perfbench
