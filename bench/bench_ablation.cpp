// The design-choice ablations of the paper's §IV, plus one library
// extension, on one protocol: each cell builds one engine with its
// sweep's options and times it with measure_bfs over seeded sources
// shared by the sweep's cells on that workload. Environment knobs as in
// bench_common.hpp (OPTIBFS_SOURCES overrides each sweep's default).
//
//   bench_ablation [sweep ...]      (no name runs every sweep)
#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "harness/source_sampler.hpp"

namespace optibfs {
namespace {

using Tweak = std::function<void(BFSOptions&)>;

/// A table row: a label and the options it sets.
struct Setting {
  std::string label;
  Tweak apply;
};

/// A group of metric columns: an engine, and options of its own applied
/// after the row's.
struct Variant {
  std::string label;
  std::string engine;
  Tweak apply = [](BFSOptions&) {};
};

/// A metric column, read off a cell's RunMeasurement.
struct Metric {
  std::string header;
  double (*read)(const RunMeasurement&);
  int precision;
};

struct Sweep {
  std::string name, title, paper;
  std::vector<std::string> workloads;
  std::vector<Variant> variants;
  std::string knob;  ///< heads the setting column
  std::vector<Setting> settings;
  std::vector<Metric> metrics;
  int default_sources;
  std::string expected;  ///< the shape the table should show
};

using M = const RunMeasurement&;
double per_source(M m, telemetry::Counter c) {
  return static_cast<double>(m.counters[c]) / std::max(1, m.sources);
}
double steal_pct(M m, std::uint64_t part) {
  const std::uint64_t all = m.steal_stats.total_attempts();
  return all == 0 ? 0.0 : 100.0 * static_cast<double>(part) / all;
}
const Metric kMs{"ms", [](M m) { return m.mean_ms; }, 2};
const Metric kDups{"dup/src", [](M m) { return m.mean_duplicates; }, 1};
const Metric kClaimSkips{"claim-skips/src",
    [](M m) { return per_source(m, telemetry::kClaimSkips); }, 1};
const Metric kSerialLevels{"serial-lvls",
    [](M m) { return per_source(m, telemetry::kLevelsSerial); }, 1};
const Metric kStealFail{"fail/att %",
    [](M m) { return steal_pct(m, m.steal_stats.total_failed()); }, 1};
const Metric kStealSuccess{"steal succ %",
    [](M m) { return steal_pct(m, m.steal_stats.successful); }, 1};

std::vector<Variant> engines(std::initializer_list<const char*> names) {
  std::vector<Variant> out;
  for (const char* name : names) out.push_back({name, name});
  return out;
}

/// One row per value of one BFSOptions field; `zero` labels the value
/// 0, which every swept field reads as adaptive or off.
template <typename T>
std::vector<Setting> values(T BFSOptions::*field,
                            const std::vector<std::type_identity_t<T>>& vs,
                            const char* zero = "0") {
  std::vector<Setting> out;
  for (const T v : vs) {
    out.push_back({v == 0 ? zero : std::to_string(v),
                   [field, v](BFSOptions& o) { o.*field = v; }});
  }
  return out;
}

std::vector<Sweep> all_sweeps(int threads) {
  // The last row sizes segments by the frontier's edges, not vertices.
  std::vector<Setting> segments = values(
      &BFSOptions::segment_size, {1, 4, 16, 64, 256, 1024, 0}, "adaptive");
  segments.push_back({"edge-balanced",
                      [](BFSOptions& o) { o.edge_balanced_segments = true; }});
  std::vector<int> pools;
  for (int j = 1; j <= threads; j *= 2) pools.push_back(j);
  // dedup: none; §IV-D's parent claim (plain stores only); an atomic
  // visited bitmap (Baseline 2's fetch_or, the RMW our engines avoid).
  std::vector<Setting> dedup;
  for (const bool clear : {true, false}) {
    for (const std::string mode : {"none", "claim", "bitmap"}) {
      dedup.push_back({(clear ? "on, " : "off, ") + mode,
                       [clear, mode](BFSOptions& o) {
                         o.clear_slots = clear;
                         o.parent_claim_dedup = mode == "claim";
                         o.visited_bitmap_dedup = mode == "bitmap";
                       }});
    }
  }
  std::vector<Setting> sockets;
  for (const int s : {1, 2, 4}) {
    sockets.push_back(
        {(s > 1 ? "socket-local, " : "flat, ") + std::to_string(s),
         [s](BFSOptions& o) {
           o.numa_aware = s > 1;
           o.num_sockets = s;
           o.dl_pools = std::max(2, s);
         }});
  }
  return {
      {"segment_size", "Segment size ablation (BFS_C / BFS_CL)",
       "design choice behind Table V, §IV-A1", {"wikipedia"},
       engines({"BFS_C", "BFS_CL"}), "segment s", segments, {kMs, kDups}, 4,
       "a U-curve with adaptive at or near the bottom; duplicates grow as "
       "segments shrink; edge-balanced matches or beats adaptive here."},
      {"dl_pools", "Decentralized pool-count sweep (BFS_DL)",
       "§IV-A3 design space (paper ran j=1 only)", {"wikipedia", "kkt_power"},
       engines({"BFS_DL"}), "pools j", values(&BFSOptions::dl_pools, pools),
       {kMs}, 4,
       "larger j cuts per-queue contention but adds migration probing; the "
       "optimum moves to larger j as threads (and contention) grow."},
      // Plain BFS_WL, with no hotspot handling, is the reference.
      {"scalefree_threshold",
       "Scale-free threshold / phase-2 ablation (BFS_WSL)",
       "§IV-B3 design choices behind Table V & Figure 2", {"wikipedia"},
       {{"chunked", "BFS_WSL",
         [](BFSOptions& o) { o.phase2 = Phase2Mode::kChunked; }},
        {"stealing", "BFS_WSL",
         [](BFSOptions& o) { o.phase2 = Phase2Mode::kStealing; }},
        {"plain BFS_WL", "BFS_WL"}},
       "threshold",
       values(&BFSOptions::degree_threshold, {8, 32, 128, 512, 4096, 0},
              "adaptive"),
       {kMs}, 4,
       "very low thresholds serialize small vertices in phase 2, very high "
       "ones degenerate to BFS_WL; stealing trails chunked, as in the paper."},
      {"max_steal", "MAX_STEAL factor sweep (BFS_WL / BFS_WSL)",
       "Table VI discussion, §IV-B1", {"wikipedia"},
       engines({"BFS_WL", "BFS_WSL"}), "c",
       values(&BFSOptions::steal_attempt_factor, {1, 2, 4, 8, 16}),
       {kMs, kStealFail}, 4,
       "the failed-attempt share rises with c (end-of-level probing); time "
       "is flat-ish, with a shallow optimum at small-to-moderate c."},
      // The dense graph is where §IV-D expects the claim to pay.
      {"duplicates", "Duplicate-exploration controls",
       "§IV-A2 clearing trick + §IV-D parent claim", {"rmat_dense"},
       engines({"BFS_CL", "BFS_WL"}), "clearing, dedup", dedup,
       {kMs, kDups, kClaimSkips}, 4,
       "clearing off inflates duplicates (most for the work-stealing owner "
       "walk); the claim removes cross-queue ones for an array read a pop."},
      // The sockets are simulated (DESIGN.md §3.2).
      {"numa_policy", "NUMA-aware policy ablation",
       "§IV-C (sketched in the paper, implemented here)", {"wikipedia"},
       engines({"BFS_WL", "BFS_WSL", "BFS_DL"}), "policy, sockets", sockets,
       {kMs, kStealSuccess}, 4,
       "on one NUMA node the policy can only cost (fewer victims); the sweep "
       "validates the mechanism and runs unchanged on a NUMA machine."},
      {"hybrid_serial", "Small-frontier serial cutoff sweep (BFS_CL)",
       "extension; cf. Baseline2's per-level selection",
       {"cage14", "wikipedia"}, engines({"BFS_CL"}), "cutoff",
       values(&BFSOptions::serial_frontier_cutoff,
              {0, 4, 16, 64, 256, 1024}, "off"),
       {kMs, kSerialLevels}, 3,
       "the deep mesh speeds up as the cutoff grows; the scale-free graph is "
       "indifferent until the cutoff swallows real frontiers."},
  };
}

void run_sweep(const Sweep& sweep, int threads) {
  bench::print_banner(sweep.title, sweep.paper);
  std::vector<Workload> workloads;
  std::vector<std::vector<vid_t>> sources;
  std::vector<std::string> header{sweep.knob};
  for (const std::string& name : sweep.workloads) {
    workloads.push_back(make_workload(name, workload_config_from_env()));
    bench::print_workload_line(workloads.back());
    sources.push_back(sample_sources(workloads.back().graph,
                                     env_sources(sweep.default_sources), 42));
    // Name the workload and the variant only where the sweep has several.
    for (const Variant& v : sweep.variants) {
      for (const Metric& metric : sweep.metrics) {
        header.push_back((sweep.workloads.size() > 1 ? name + " " : "") +
                         (sweep.variants.size() > 1 ? v.label + " " : "") +
                         metric.header);
      }
    }
  }
  std::cout << '\n';
  Table table(header);
  for (const Setting& setting : sweep.settings) {
    const std::size_t row = table.add_row();
    table.set(row, 0, setting.label);
    std::size_t col = 1;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      for (const Variant& variant : sweep.variants) {
        BFSOptions options;
        options.num_threads = threads;
        setting.apply(options);
        variant.apply(options);
        const CsrGraph& graph = workloads[w].graph;
        auto engine = make_bfs(variant.engine, graph, options);
        const RunMeasurement m =
            measure_bfs(*engine, graph, sources[w], env_verify());
        for (const Metric& metric : sweep.metrics)
          table.set(row, col++, metric.read(m), metric.precision);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: " << sweep.expected << "\n";
}

}  // namespace
}  // namespace optibfs

int main(int argc, char** argv) {
  using namespace optibfs;
  const int threads = env_threads(8);
  const std::vector<Sweep> sweeps = all_sweeps(threads);
  for (int i = 1; i < argc; ++i) {
    if (std::none_of(sweeps.begin(), sweeps.end(),
                     [&](const Sweep& s) { return s.name == argv[i]; })) {
      std::cerr << "unknown sweep '" << argv[i] << "'; sweeps:";
      for (const Sweep& s : sweeps) std::cerr << ' ' << s.name;
      std::cerr << '\n';
      return 2;
    }
  }
  for (const Sweep& s : sweeps) {
    if (argc == 1 || std::find(argv + 1, argv + argc, s.name) != argv + argc)
      run_sweep(s, threads);
  }
  return 0;
}
