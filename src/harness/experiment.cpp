#include "harness/experiment.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/registry.hpp"
#include "harness/json_writer.hpp"
#include "harness/source_sampler.hpp"

namespace optibfs {

bool write_cells_json(const std::string& path, const std::string& bench_name,
                      const std::vector<ExperimentCell>& cells,
                      const std::string& summary_json) {
  // Rendered before the file is opened: opening truncates it, and a
  // truncated tracked BENCH file would make the header's git stamp
  // read dirty.
  std::ostringstream body;
  JsonWriter w(body);
  w.begin_object();
  write_result_header(w);
  w.key("bench").value(bench_name);
  w.key("summary").raw(summary_json);
  w.key("cells").begin_array();
  for (const ExperimentCell& cell : cells) {
    const RunMeasurement& m = cell.measurement;
    w.begin_object();
    w.key("graph").value(cell.graph);
    w.key("algorithm").value(cell.algorithm);
    w.key("threads").value(cell.threads);
    w.key("sources").value(m.sources);
    w.key("mean_ms").value(m.mean_ms);
    w.key("min_ms").value(m.min_ms);
    w.key("max_ms").value(m.max_ms);
    w.key("mean_teps").value(m.mean_teps);
    w.key("mean_duplicates").value(m.mean_duplicates);
    // Flight-recorder totals over all of the cell's sources (nonzero
    // counters only, so top-down-only cells stay compact).
    w.key("counters").raw(m.counters.to_json());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  body << "\n";
  std::ofstream out(path);
  if (!out) return false;
  out << body.str();
  return static_cast<bool>(out);
}

std::vector<ExperimentCell> run_experiment(
    const std::vector<Workload>& workloads, const ExperimentConfig& config) {
  std::vector<ExperimentCell> cells;
  for (const Workload& workload : workloads) {
    const std::vector<vid_t> sources =
        sample_sources(workload.graph, config.sources, config.source_seed);
    for (const int threads : config.thread_counts) {
      for (const std::string& algorithm : config.algorithms) {
        BFSOptions options = config.base_options;
        options.num_threads = threads;
        auto engine = make_bfs(algorithm, workload.graph, options);
        ExperimentCell cell;
        cell.graph = workload.name;
        cell.algorithm = algorithm;
        cell.threads = threads;
        cell.measurement =
            measure_bfs(*engine, workload.graph, sources, config.verify);
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

namespace {

int env_int(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  int value = 0;
  const auto [end, ec] = std::from_chars(raw, raw + std::strlen(raw), value);
  if (ec != std::errc() || *end != '\0' || value < 1) {
    std::cerr << name << " expects a positive integer, not '" << raw << "'\n";
    std::exit(2);
  }
  return value;
}

}  // namespace

int env_sources(int default_sources) {
  return env_int("OPTIBFS_SOURCES", default_sources);
}

int env_threads(int default_threads) {
  return env_int("OPTIBFS_THREADS", default_threads);
}

bool env_verify() {
  const char* raw = std::getenv("OPTIBFS_VERIFY");
  return raw != nullptr && raw[0] == '1';
}

}  // namespace optibfs
