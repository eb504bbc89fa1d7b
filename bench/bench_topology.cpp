// Memory-topology sweep: placement x huge pages x prefetch distance on
// the hybrid engine (DESIGN.md §13).
//
// Not a paper artifact — this records what the memory-topology layer
// buys (or costs) on the machine at hand. The base cells turn no
// knob but the fixed prefetch distance; every other cell turns exactly
// the knobs its label names:
//
//   * pf0 / pf8 / pf16: fixed BFSOptions::prefetch_distance values
//     (pf0 is the default every service and engine runs with).
//   * huge: BFSOptions::huge_pages — MADV_HUGEPAGE on level[] and the
//     epoch-stamped arenas.
//   * pin: BFSOptions::pin_threads + numa_aware with num_sockets=0 —
//     workers pinned to the detected node cpu lists, first-touch and
//     (on NUMA machines) mbind placement of the per-socket slices.
//
// The headline is harmonic-mean TEPS per graph class (scale-free vs
// mesh/circuit). The bench gates nothing on a ratio: one run's cell
// ratios move more than any honest floor on a shared host. It exits
// non-zero only when a run fails verification or the JSON write fails.
//
// `--smoke` runs a tiny two-cell verified sweep (ctest wiring).
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"
#include "runtime/mem_topology.hpp"

namespace {

using namespace optibfs;

constexpr const char* kEngine = "BFS_CL_H";

struct TopoConfig {
  bool pin = false;
  bool huge = false;
  int prefetch = 0;  ///< fixed BFSOptions::prefetch_distance

  std::string label() const {
    std::ostringstream out;
    if (!pin && !huge) {
      out << "base";
    } else {
      if (huge) out << "huge";
      if (huge && pin) out << "+";
      if (pin) out << "pin";
    }
    out << "/pf" << prefetch;
    return out.str();
  }
};

double harmonic_mean_teps(const std::vector<ExperimentCell>& cells,
                          const std::string& label,
                          const std::vector<std::string>& subset) {
  double denom = 0.0;
  std::size_t found = 0;
  for (const ExperimentCell& cell : cells) {
    if (cell.algorithm != label) continue;
    for (const std::string& graph : subset) {
      if (cell.graph != graph) continue;
      if (cell.measurement.mean_teps <= 0.0) return 0.0;
      denom += 1.0 / cell.measurement.mean_teps;
      ++found;
    }
  }
  if (found != subset.size() || denom <= 0.0) return 0.0;
  return static_cast<double>(found) / denom;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "Memory-topology sweep: placement x huge pages x prefetch (BFS_CL_H)",
      "DESIGN.md §13 (not a paper figure)");

  const mem::PhysicalTopology& machine = mem::system_topology();
  std::cout << "  machine: " << machine.nodes.size() << " node(s), "
            << (machine.detected ? "sysfs-detected" : "flat fallback")
            << ", thp=" << mem::thp_mode_name(mem::thp_mode())
            << ", pinning=" << (mem::pinning_available() ? "yes" : "no")
            << "\n\n";

  WorkloadConfig wconfig = workload_config_from_env();
  // Two graph classes: the skewed low-diameter set where prefetch and
  // page size dominate, and the high-diameter mesh/circuit set where
  // lookahead past the frontier is wasted work (the pf8 regression).
  std::vector<const char*> scale_free{"wikipedia", "rmat_dense"};
  std::vector<const char*> mesh{"kkt_power", "freescale"};
  if (smoke) {
    wconfig.scale = std::min(wconfig.scale, 0.05);
    scale_free = {"wikipedia"};
    mesh = {};
  }
  std::vector<Workload> workloads;
  std::map<std::string, std::vector<std::string>> classes;
  for (const char* name : scale_free) {
    workloads.push_back(make_workload(name, wconfig));
    classes["scale_free"].push_back(name);
    bench::print_workload_line(workloads.back());
  }
  for (const char* name : mesh) {
    workloads.push_back(make_workload(name, wconfig));
    classes["mesh"].push_back(name);
    bench::print_workload_line(workloads.back());
  }
  std::cout << '\n';

  std::vector<TopoConfig> configs;
  if (smoke) {
    configs.push_back({false, false, 8});  // base/pf8
    configs.push_back({true, true, 0});    // huge+pin/pf0
  } else {
    configs.push_back({false, false, 0});   // base/pf0
    configs.push_back({false, false, 8});   // base/pf8
    configs.push_back({false, false, 16});  // base/pf16
    configs.push_back({false, true, 0});    // huge/pf0
    configs.push_back({true, false, 0});    // pin/pf0
    configs.push_back({true, true, 0});     // huge+pin/pf0
  }

  const int threads = smoke ? 2 : env_threads(8);
  const int num_sources = smoke ? 2 : env_sources(4);
  const bool verify = smoke || env_verify();

  // One-shot THP probe: did the kernel accept MADV_HUGEPAGE on a
  // buffer like the ones the huge cells allocate?
  const bool huge_advised = [] {
    mem::PlacedBuffer<std::uint64_t> probe;
    return probe.grow(std::size_t{1} << 19, /*huge=*/true);
  }();

  std::vector<ExperimentCell> cells;
  int pinned_threads = 0;
  for (const Workload& workload : workloads) {
    const std::vector<vid_t> sources =
        sample_sources(workload.graph, num_sources, /*seed=*/42);
    for (const TopoConfig& config : configs) {
      BFSOptions options;
      options.num_threads = threads;
      options.prefetch_distance = config.prefetch;
      options.huge_pages = config.huge;
      if (config.pin) {
        options.pin_threads = true;
        options.numa_aware = true;
        options.num_sockets = 0;  // detect the physical machine
      }
      auto engine = make_bfs(kEngine, workload.graph, options);
      ExperimentCell cell;
      cell.graph = workload.name;
      cell.algorithm = config.label();
      cell.threads = threads;
      cell.measurement = measure_bfs(*engine, workload.graph, sources, verify);
      pinned_threads = std::max(pinned_threads, engine->pinned_threads());
      cells.push_back(std::move(cell));
    }
  }

  std::vector<std::string> header{"Config (MTEPS)"};
  for (const Workload& w : workloads) header.push_back(w.name);
  for (const auto& [cls, graphs] : classes) header.push_back("HM " + cls);
  Table table(header);

  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("engine").value(kEngine);
  sw.key("pinned_threads").value(pinned_threads);
  sw.key("huge_advised").value(huge_advised);

  std::map<std::string, std::map<std::string, double>> class_hm;
  for (const TopoConfig& config : configs) {
    const std::string label = config.label();
    const std::size_t row = table.add_row();
    table.set(row, 0, label);
    for (std::size_t c = 0; c < workloads.size(); ++c) {
      for (const ExperimentCell& cell : cells) {
        if (cell.algorithm == label && cell.graph == workloads[c].name) {
          table.set(row, c + 1, cell.measurement.mean_teps / 1e6, 2);
        }
      }
    }
    std::size_t col = workloads.size() + 1;
    for (const auto& [cls, graphs] : classes) {
      const double hm = harmonic_mean_teps(cells, label, graphs);
      class_hm[cls][label] = hm;
      table.set(row, col++, hm / 1e6, 2);
    }
  }
  table.print(std::cout);

  sw.key("classes").begin_object();
  for (const auto& [cls, graphs] : classes) {
    sw.key(cls).begin_object();
    sw.key("graphs").begin_array();
    for (const std::string& g : graphs) sw.value(g);
    sw.end_array();
    sw.key("hm_teps").begin_object();
    for (const auto& [label, hm] : class_hm[cls]) sw.key(label).value(hm);
    sw.end_object();
    sw.end_object();
  }
  sw.end_object();
  sw.end_object();

  if (verify) {
    std::cout << "  every run verified against the serial oracle\n";
  }

  const bool wrote =
      bench::maybe_write_json("topology", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
