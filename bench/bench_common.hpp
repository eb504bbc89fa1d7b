// Shared scaffolding for the table/figure reproduction binaries.
//
// Every bench reads the same environment knobs:
//   OPTIBFS_SCALE    — workload size multiplier (default 1.0)
//   OPTIBFS_SOURCES  — sources per measurement (default 4 here; the
//                      paper used 1000 — raise it on a real machine)
//   OPTIBFS_THREADS  — max thread count (default 8)
//   OPTIBFS_VERIFY   — 1 = validate every run against the serial oracle
//   OPTIBFS_GRAPH_DIR— directory of real .mtx graphs overriding the
//                      synthetic stand-ins
//   OPTIBFS_JSON     — machine-readable output: "1"/"true" writes
//                      BENCH_<name>.json into the CWD, any other value
//                      is treated as the directory to write it into.
//                      A `--json <path>` command-line flag overrides.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph_props.hpp"
#include "graph/workloads.hpp"
#include "harness/experiment.hpp"
#include "harness/machine_info.hpp"
#include "harness/table.hpp"

namespace optibfs::bench {

inline void print_banner(const std::string& title,
                         const std::string& paper_artifact) {
  std::cout << "\n== " << title << " ==\n"
            << "reproduces: " << paper_artifact << "\n"
            << "(times are oversubscribed single-core container numbers;"
            << " see EXPERIMENTS.md)\n\n";
}

inline void print_workload_line(const Workload& w) {
  std::cout << "  " << w.name << ": n=" << w.graph.num_vertices()
            << " m=" << w.graph.num_edges() << "  [" << w.description
            << "]\n";
}

/// Default experiment settings shared by the reproduction benches.
inline ExperimentConfig default_config() {
  ExperimentConfig config;
  config.sources = env_sources(4);
  config.verify = env_verify();
  config.thread_counts = {env_threads(8)};
  return config;
}

/// Resolves where bench `name` should write its JSON results, or ""
/// when JSON output is off: `--json <path>` wins, then OPTIBFS_JSON
/// (see the header comment).
inline std::string json_path(const std::string& name, int argc,
                             char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return argv[i + 1];
  }
  if (const char* env = std::getenv("OPTIBFS_JSON")) {
    const std::string value = env;
    if (value.empty() || value == "0") return {};
    const std::string file = "BENCH_" + name + ".json";
    if (value == "1" || value == "true") return file;
    return value + "/" + file;
  }
  return {};
}

/// Writes the sweep results as JSON when the user asked for it (no-op
/// otherwise). `summary_json` is an optional pre-rendered JSON value
/// embedded under "summary". Returns false when the file could not be
/// written, so the bench exits non-zero instead of reporting success.
[[nodiscard]] inline bool maybe_write_json(
    const std::string& name, int argc, char** argv,
    const std::vector<ExperimentCell>& cells,
    const std::string& summary_json = {}) {
  const std::string path = json_path(name, argc, argv);
  if (path.empty()) return true;
  if (!write_cells_json(path, name, cells, summary_json)) {
    std::cerr << "\nfailed to write " << path << "\n";
    return false;
  }
  std::cout << "\nwrote " << path << "\n";
  return true;
}

}  // namespace optibfs::bench
