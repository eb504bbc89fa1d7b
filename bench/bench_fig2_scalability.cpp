// Figure 2: scalability of the lock-free algorithms on the wikipedia
// (scale-free) graph — running time vs. number of worker threads.
//
// Paper: Figure 2(a) on Lonestar (up to 12 cores), 2(b) on Trestles
// (up to 32). We sweep p = 1..OPTIBFS_THREADS on the wikipedia stand-in
// and print one series per lock-free algorithm plus the serial
// reference line. On this single-core container times *grow* with p
// (pure overhead); on a real multicore the same binary produces the
// paper's downward curves.
#include <iostream>

#include "bench_common.hpp"
#include "core/registry.hpp"

int main(int argc, char** argv) {
  using namespace optibfs;
  bench::print_banner("Scalability on the scale-free graph",
                      "Figure 2(a)/(b)");

  const WorkloadConfig wconfig = workload_config_from_env();
  std::vector<Workload> workloads;
  workloads.push_back(make_workload("wikipedia", wconfig));
  bench::print_workload_line(workloads.front());
  std::cout << '\n';

  ExperimentConfig config = bench::default_config();
  config.algorithms = lockfree_algorithms();
  config.thread_counts.clear();
  const int max_threads = env_threads(8);
  for (int p = 1; p <= max_threads; p *= 2) config.thread_counts.push_back(p);
  if (config.thread_counts.back() != max_threads) {
    config.thread_counts.push_back(max_threads);
  }

  const auto cells = run_experiment(workloads, config);

  std::vector<std::string> header{"threads"};
  for (const auto& algorithm : config.algorithms) header.push_back(algorithm);
  header.push_back("sbfs(ref)");
  Table table(header);

  // Serial reference once (thread count irrelevant).
  ExperimentConfig serial_config = config;
  serial_config.algorithms = {"sbfs"};
  serial_config.thread_counts = {1};
  const auto serial_cells = run_experiment(workloads, serial_config);
  const double serial_ms = serial_cells.front().measurement.mean_ms;

  for (const int p : config.thread_counts) {
    const std::size_t row = table.add_row();
    table.set(row, 0, static_cast<std::uint64_t>(p));
    for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
      for (const auto& cell : cells) {
        if (cell.threads == p && cell.algorithm == config.algorithms[a]) {
          table.set(row, a + 1, cell.measurement.mean_ms, 2);
        }
      }
    }
    table.set(row, config.algorithms.size() + 1, serial_ms, 2);
  }
  table.print(std::cout);

  std::cout << "\nPaper shape: centralized (BFS_CL/BFS_DL) flattens past "
               "~20 cores while work-stealing (BFS_WL/BFS_WSL) keeps "
               "scaling to 32. On a 1-core container every curve rises "
               "with p instead; compare *between* algorithms, not along "
               "the axis.\n";
  auto all_cells = cells;
  all_cells.insert(all_cells.end(), serial_cells.begin(), serial_cells.end());
  const bool wrote = bench::maybe_write_json("fig2", argc, argv, all_cells);
  return wrote ? 0 : 1;
}
