// Harness-layer tests: table formatting, source sampling, measurement,
// machine detection, experiment driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "harness/experiment.hpp"
#include "harness/machine_info.hpp"
#include "harness/source_sampler.hpp"
#include "harness/table.hpp"
#include "harness/timing.hpp"

namespace optibfs {
namespace {

TEST(TableFormat, AlignedOutputContainsAllCells) {
  Table table({"graph", "ms", "teps"});
  const auto row = table.add_row();
  table.set(row, 0, "wiki");
  table.set(row, 1, 12.345, 1);
  table.set(row, 2, std::uint64_t{999});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("graph"), std::string::npos);
  EXPECT_NE(text.find("wiki"), std::string::npos);
  EXPECT_NE(text.find("12.3"), std::string::npos);
  EXPECT_NE(text.find("999"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableFormat, CsvEscapesSpecials) {
  Table table({"a", "b"});
  table.add_row({"has,comma", "has\"quote"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_NE(out.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableFormat, ShortRowsArePadded) {
  Table table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_EQ(table.cell(0, 2), "");
  EXPECT_EQ(table.num_cols(), 3u);
}

TEST(HumanCount, Suffixes) {
  EXPECT_EQ(human_count(950), "950");
  EXPECT_EQ(human_count(1500), "1.5K");
  EXPECT_EQ(human_count(2500000), "2.5M");
  EXPECT_EQ(human_count(3.2e9), "3.2B");
}

TEST(SourceSampler, DeterministicAndNonIsolated) {
  EdgeList edges(100);
  for (vid_t v = 0; v < 50; ++v) edges.add_unchecked(v, v + 50);
  const CsrGraph g = CsrGraph::from_edges(edges);
  const auto a = sample_sources(g, 20, 9);
  const auto b = sample_sources(g, 20, 9);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 20u);
  for (const vid_t s : a) {
    EXPECT_GT(g.out_degree(s), 0u) << "picked isolated source " << s;
  }
  const auto c = sample_sources(g, 20, 10);
  EXPECT_NE(a, c);
}

TEST(SourceSampler, AllIsolatedFallsBack) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList(10));
  const auto sources = sample_sources(g, 3, 1);
  ASSERT_EQ(sources.size(), 3u);
  for (const vid_t s : sources) EXPECT_EQ(s, 0u);
}

TEST(SourceSampler, EmptyRequests) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(5));
  EXPECT_TRUE(sample_sources(g, 0, 1).empty());
  EXPECT_TRUE(sample_sources(CsrGraph{}, 5, 1).empty());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
  EXPECT_GE(timer.elapsed_ms(), 0.0);
}

TEST(MeasureBfs, AggregatesAcrossSources) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(1000, 8000, 2));
  BFSOptions options;
  options.num_threads = 2;
  auto engine = make_bfs("BFS_CL", g, options);
  const auto sources = sample_sources(g, 5, 3);
  const RunMeasurement m = measure_bfs(*engine, g, sources,
                                       /*verify_each=*/true);
  EXPECT_EQ(m.sources, 5);
  EXPECT_GT(m.mean_ms, 0.0);
  EXPECT_LE(m.min_ms, m.mean_ms);
  EXPECT_GE(m.max_ms, m.mean_ms);
  EXPECT_GT(m.mean_teps, 0.0);
}

TEST(MeasureBfs, EmptySourceListIsNoop) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(5));
  BFSOptions options;
  auto engine = make_bfs("sbfs", g, options);
  const RunMeasurement m = measure_bfs(*engine, g, {});
  EXPECT_EQ(m.sources, 0);
  EXPECT_EQ(m.mean_ms, 0.0);
}

TEST(MachineInfo, DetectsSomethingOnLinux) {
  const MachineInfo info = detect_machine();
  EXPECT_GE(info.logical_cpus, 1);
#ifdef __linux__
  EXPECT_GT(info.total_ram_mb, 0);
#endif
}

TEST(Experiment, SweepProducesOneCellPerPoint) {
  WorkloadConfig wconfig;
  wconfig.scale = 0.02;  // tiny graphs for test speed
  std::vector<Workload> workloads;
  workloads.push_back(make_workload("kkt_power", wconfig));
  workloads.push_back(make_workload("wikipedia", wconfig));

  ExperimentConfig config;
  config.algorithms = {"sbfs", "BFS_CL"};
  config.thread_counts = {1, 2};
  config.sources = 2;
  config.verify = true;
  const auto cells = run_experiment(workloads, config);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  for (const auto& cell : cells) {
    EXPECT_GT(cell.measurement.mean_ms, 0.0);
    EXPECT_EQ(cell.measurement.sources, 2);
  }
  // Every (graph, algorithm, threads) combination appears exactly once.
  const auto count = std::count_if(cells.begin(), cells.end(), [](auto& c) {
    return c.graph == "wikipedia" && c.algorithm == "BFS_CL" && c.threads == 2;
  });
  EXPECT_EQ(count, 1);
}

TEST(Experiment, EnvHelpersFallBack) {
  unsetenv("OPTIBFS_SOURCES");
  unsetenv("OPTIBFS_THREADS");
  unsetenv("OPTIBFS_VERIFY");
  EXPECT_EQ(env_sources(8), 8);
  EXPECT_EQ(env_threads(4), 4);
  EXPECT_FALSE(env_verify());
  setenv("OPTIBFS_SOURCES", "12", 1);
  setenv("OPTIBFS_VERIFY", "1", 1);
  EXPECT_EQ(env_sources(8), 12);
  EXPECT_TRUE(env_verify());
  unsetenv("OPTIBFS_SOURCES");
  unsetenv("OPTIBFS_VERIFY");
}

TEST(Experiment, EnvHelpersRejectGarbage) {
  // A typo must not quietly become a different experiment.
  setenv("OPTIBFS_SOURCES", "3x", 1);
  EXPECT_EXIT(env_sources(8), ::testing::ExitedWithCode(2), "OPTIBFS_SOURCES");
  setenv("OPTIBFS_SOURCES", "0", 1);
  EXPECT_EXIT(env_sources(8), ::testing::ExitedWithCode(2), "OPTIBFS_SOURCES");
  unsetenv("OPTIBFS_SOURCES");
  setenv("OPTIBFS_THREADS", "four", 1);
  EXPECT_EXIT(env_threads(4), ::testing::ExitedWithCode(2), "OPTIBFS_THREADS");
  unsetenv("OPTIBFS_THREADS");
}

}  // namespace
}  // namespace optibfs
