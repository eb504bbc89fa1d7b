// Memory-topology layer (DESIGN.md §13): sysfs parsing, placement
// syscall degrade paths, first-touch buffers, socket maps, and the
// register_graph prefetch tuner's provenance contract.
//
// The invariant under test everywhere mirrors the locality suite:
// topology knobs must be observationally invisible. Every engine /
// session / kernel configuration with pinning, huge pages, and NUMA
// placement enabled agrees with the serial oracle, and every syscall
// wrapper fails *soft* — the primary dev container is single-node with
// THP=madvise, so the "kernel said no" branches are the ones CI
// actually runs. This file is folded into sanitize_tests so the
// degrade paths are also proven TSan-clean.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/bfs_serial.hpp"
#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/reference.hpp"
#include "runtime/mem_topology.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/topology.hpp"
#include "service/bfs_service.hpp"
#include "service/prefetch_tuner.hpp"

namespace optibfs {
namespace {

namespace fs = std::filesystem;

#if defined(OPTIBFS_NUMA)

// ---------------------------------------------------------------------
// sysfs parsing (pure functions, no syscalls).

TEST(MemTopologyParse, CpuListRangesAndSingles) {
  const std::vector<int> cpus = mem::parse_cpu_list("0-3,8,10-11");
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
}

TEST(MemTopologyParse, CpuListDegradesOnMalformedChunks) {
  EXPECT_TRUE(mem::parse_cpu_list("").empty());
  EXPECT_TRUE(mem::parse_cpu_list("abc").empty());
  // Trailing "-" keeps the range start rather than dropping the cpu.
  EXPECT_EQ(mem::parse_cpu_list("4-"), (std::vector<int>{4}));
  // Reversed ranges are skipped, not expanded backwards.
  EXPECT_TRUE(mem::parse_cpu_list("7-5").empty());
  // Garbage between chunks acts as a separator.
  EXPECT_EQ(mem::parse_cpu_list("3,x,9"), (std::vector<int>{3, 9}));
}

TEST(MemTopologyParse, NodeTreeFromFakeSysfs) {
  // Per process: `ctest -j` runs this case in two test binaries at once.
  const fs::path root = fs::temp_directory_path() /
                        ("optibfs_fake_sysfs_nodes_" +
                         std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root / "node0");
  fs::create_directories(root / "node1");
  fs::create_directories(root / "node2");
  std::ofstream(root / "node0" / "cpulist") << "0-1\n";
  std::ofstream(root / "node1" / "cpulist") << "2,3\n";
  // Empty cpu list: an offline node must be skipped, not kept as a
  // zero-cpu socket that placement would divide by.
  std::ofstream(root / "node2" / "cpulist") << "\n";

  const mem::PhysicalTopology topo = mem::parse_node_tree(root.string());
  ASSERT_TRUE(topo.detected);
  ASSERT_EQ(topo.nodes.size(), 2u);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.nodes[1].id, 1);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{2, 3}));
  fs::remove_all(root);
}

TEST(MemTopologyParse, MissingNodeTreeDegradesToFlat) {
  const mem::PhysicalTopology topo =
      mem::parse_node_tree("/nonexistent/optibfs/sysfs/root");
  EXPECT_FALSE(topo.detected);
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_FALSE(topo.nodes[0].cpus.empty());
}

TEST(MemTopologyParse, ThpEnabledLineBrackets) {
  EXPECT_EQ(mem::parse_thp_enabled("always [madvise] never"),
            mem::ThpMode::kMadvise);
  EXPECT_EQ(mem::parse_thp_enabled("[always] madvise never"),
            mem::ThpMode::kAlways);
  EXPECT_EQ(mem::parse_thp_enabled("always madvise [never]"),
            mem::ThpMode::kNever);
  EXPECT_EQ(mem::parse_thp_enabled("always madvise never"),
            mem::ThpMode::kUnknown);
  EXPECT_EQ(mem::parse_thp_enabled(""), mem::ThpMode::kUnknown);
}

#endif  // OPTIBFS_NUMA

// ---------------------------------------------------------------------
// Syscall wrappers: every path must fail soft. These assertions hold on
// any machine — single-node containers, NUMA boxes, and the
// OPTIBFS_NUMA=OFF stub build alike.

TEST(MemTopologyDegrade, SystemTopologyAlwaysHasOneNode) {
  const mem::PhysicalTopology& topo = mem::system_topology();
  ASSERT_GE(topo.nodes.size(), 1u);
  for (const mem::NumaNode& node : topo.nodes) {
    EXPECT_FALSE(node.cpus.empty());
  }
  // The cached reference is stable across calls.
  EXPECT_EQ(&mem::system_topology(), &topo);
}

TEST(MemTopologyDegrade, AdviseHugePagesRejectsBadRegions) {
  EXPECT_FALSE(mem::advise_huge_pages(nullptr, 0));
  // A region smaller than a page trims to nothing and must refuse
  // rather than madvise a neighbour's memory.
  alignas(64) char tiny[16];
  EXPECT_FALSE(mem::advise_huge_pages(tiny, sizeof(tiny)));
}

TEST(MemTopologyDegrade, PinRejectsInvalidCpus) {
  EXPECT_FALSE(mem::pin_current_thread_to_cpu(-1));
  EXPECT_FALSE(mem::pin_current_thread_to_cpu(1 << 20));
}

TEST(MemTopologyDegrade, BindAndInterleaveFailSoft) {
  std::vector<std::uint64_t> buf(1024, 0);
  const std::size_t bytes = buf.size() * sizeof(std::uint64_t);
  // Unknown node ids always refuse.
  EXPECT_FALSE(mem::bind_to_node(buf.data(), bytes, 999));
  EXPECT_FALSE(mem::bind_to_node(buf.data(), bytes, -1));
  EXPECT_FALSE(mem::bind_to_node(nullptr, 0, 0));
  EXPECT_FALSE(mem::interleave_across_nodes(nullptr, 0));
  if (!mem::numa_enabled()) {
    // Single-node machine (the CI container): both placement calls
    // degrade to no-ops reported as false, and the buffer stays usable.
    EXPECT_FALSE(mem::bind_to_node(buf.data(), bytes, 0));
    EXPECT_FALSE(mem::interleave_across_nodes(buf.data(), bytes));
  }
  buf[0] = 42;
  EXPECT_EQ(buf[0], 42u);
}

TEST(MemTopologyDegrade, ThpProbesNeverThrow) {
  const mem::ThpMode mode = mem::thp_mode();
  EXPECT_NE(mem::thp_mode_name(mode), nullptr);
  // huge_pages_supported() is consistent with the probed mode.
  if (mode == mem::ThpMode::kNever || mode == mem::ThpMode::kUnknown) {
    EXPECT_FALSE(mem::huge_pages_supported());
  }
  // Smaps parsing degrades to 0, never throws.
  (void)mem::anon_huge_bytes();
}

// ---------------------------------------------------------------------
// PlacedBuffer: raw first-touch allocation.

TEST(PlacedBuffer, GrowReuseAndMove) {
  mem::PlacedBuffer<std::uint32_t> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);

  buf.grow(100, /*huge=*/false);
  ASSERT_EQ(buf.size(), 100u);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint32_t>(i);
  }

  // Shrinking keeps the allocation (engines only re-initialize).
  const std::uint32_t* before = buf.data();
  buf.grow(50, /*huge=*/false);
  EXPECT_EQ(buf.data(), before);
  EXPECT_EQ(buf[49], 49u);

  buf.grow(4096, /*huge=*/false);
  ASSERT_EQ(buf.size(), 4096u);

  mem::PlacedBuffer<std::uint32_t> moved = std::move(buf);
  EXPECT_EQ(moved.size(), 4096u);
  EXPECT_TRUE(buf.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(PlacedBuffer, HugeGrowAlignsToHugePageBoundary) {
  mem::PlacedBuffer<std::uint64_t> buf;
  const bool advised = buf.grow(1000, /*huge=*/true);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                mem::kHugePageBytes,
            0u);
  EXPECT_EQ(buf.capacity_bytes() % mem::kHugePageBytes, 0u);
  // The advise may legitimately fail (THP=never, stub build); the
  // report must just agree with the accessor.
  EXPECT_EQ(advised, buf.huge_advised());
  std::memset(static_cast<void*>(buf.data()), 0, buf.capacity_bytes());
  EXPECT_EQ(buf[999], 0u);
}

TEST(PlacedBuffer, GrowZeroIsSafe) {
  mem::PlacedBuffer<std::uint64_t> buf;
  EXPECT_FALSE(buf.grow(0, /*huge=*/true));
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

// ---------------------------------------------------------------------
// Topology socket maps.

TEST(TopologySplit, BalancedAcrossAllShapes) {
  for (int threads = 1; threads <= 16; ++threads) {
    for (int sockets = 1; sockets <= 8; ++sockets) {
      const Topology topo(threads, sockets);
      std::vector<int> per_socket(
          static_cast<std::size_t>(topo.num_sockets()), 0);
      int prev = 0;
      for (int t = 0; t < threads; ++t) {
        const int s = topo.socket_of(t);
        ASSERT_GE(s, prev);  // contiguous blocks
        prev = s;
        ++per_socket[static_cast<std::size_t>(s)];
      }
      int lo = threads;
      int hi = 0;
      for (const int count : per_socket) {
        lo = std::min(lo, count);
        hi = std::max(hi, count);
      }
      EXPECT_GE(lo, 1) << threads << " threads / " << sockets;
      EXPECT_LE(hi - lo, 1) << threads << " threads / " << sockets;
    }
  }
}

TEST(TopologySplit, TenThreadsFourSocketsRegression) {
  // The old ceil-based split produced 3/3/3/1 — a 3x imbalance on the
  // last socket's memory channels. The balanced split is 3/2/3/2.
  const Topology topo(10, 4);
  std::vector<int> per_socket(4, 0);
  for (int t = 0; t < 10; ++t) ++per_socket[topo.socket_of(t)];
  EXPECT_EQ(per_socket, (std::vector<int>{3, 2, 3, 2}));
}

TEST(TopologySplit, PhysicalMatchesDetectedMachine) {
  const Topology topo = Topology::physical(4);
  EXPECT_EQ(topo.num_threads(), 4);
  const mem::PhysicalTopology& machine = mem::system_topology();
  EXPECT_EQ(topo.num_sockets(),
            std::min<int>(4, static_cast<int>(machine.nodes.size())));
  EXPECT_EQ(topo.physical_detected(), machine.detected);
  const std::vector<int> cpu_map = topo.cpu_map();
  ASSERT_EQ(cpu_map.size(), 4u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(cpu_map[static_cast<std::size_t>(t)], topo.cpu_of(t));
    if (topo.physical_detected()) {
      // Pinned cpu must belong to the thread's socket's node.
      const auto& cpus =
          machine.nodes[static_cast<std::size_t>(topo.socket_of(t))].cpus;
      EXPECT_NE(std::find(cpus.begin(), cpus.end(), topo.cpu_of(t)),
                cpus.end());
    }
  }
}

TEST(TopologySplit, FlatReportsNoCpus) {
  const Topology topo = Topology::flat(3);
  EXPECT_FALSE(topo.physical_detected());
  for (int t = 0; t < 3; ++t) EXPECT_EQ(topo.cpu_of(t), -1);
}

// ---------------------------------------------------------------------
// ThreadTeam pinning is best-effort and counted.

TEST(ThreadTeamPin, CountsSuccessfulAffinityCalls) {
  ThreadTeam team(2, {0, 0});
  std::atomic<int> ran{0};
  team.run([&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 2);
#if defined(OPTIBFS_NUMA) && defined(__linux__)
  EXPECT_EQ(team.pinned_threads(), 2);
#else
  EXPECT_EQ(team.pinned_threads(), 0);
#endif
}

TEST(ThreadTeamPin, InvalidEntriesLeaveWorkersFloating) {
  // cpu -1 and a map shorter than the team both mean "don't pin".
  ThreadTeam team(3, {-1});
  std::atomic<int> ran{0};
  team.run([&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(team.pinned_threads(), 0);
}

// ---------------------------------------------------------------------
// Observational invisibility: the full knob stack agrees with the
// serial oracle for engines, MS-BFS, and kernels.

BFSOptions all_knobs_options() {
  BFSOptions opts;
  opts.num_threads = 4;
  opts.numa_aware = true;
  opts.num_sockets = 0;  // detect the physical machine
  opts.pin_threads = true;
  opts.huge_pages = true;
  opts.prefetch_distance = 4;
  return opts;
}

TEST(TopologyParity, EnginesMatchOracleWithAllKnobsOn) {
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(11, 12, 21));
  const vid_t source = 3;
  const BFSResult reference = bfs_serial(g, source);
  for (const char* name : {"BFS_CL", "BFS_WS", "BFS_CL_H"}) {
    auto engine = make_bfs(name, g, all_knobs_options());
    BFSResult out;
    // Two runs: first-touch + arena init on run 1, epoch reuse on run 2.
    engine->run(source, out);
    engine->run(source, out);
    EXPECT_EQ(out.level, reference.level) << name;
    EXPECT_GE(engine->pinned_threads(), 0) << name;
  }
}

TEST(TopologyParity, MsBfsMatchesOracleWithAllKnobsOn) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(2000, 12000, 9));
  MsBfsSession session(g, all_knobs_options());
  const std::vector<vid_t> sources{1, 7, 42, 1999};
  const MsBfsResult wave = session.run(sources);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const BFSResult reference = bfs_serial(g, sources[s]);
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(wave.distance[s * g.num_vertices() + v], reference.level[v])
          << "source " << sources[s] << " vertex " << v;
    }
  }
}

TEST(TopologyParity, KernelsMatchReferenceWithAllKnobsOn) {
  const CsrGraph g = CsrGraph::from_edges(gen::power_law(1200, 9000, 2.3, 5));
  auto kernel = kernels::make_kernel("CC", g, all_knobs_options());
  kernels::KernelResult out;
  kernel->run(out);
  EXPECT_EQ(out.labels, kernels::cc_reference(g));
}

// ---------------------------------------------------------------------
// Prefetch tuner provenance (the pf8 postmortem's contract): a skipped
// probe must say "configured", never masquerade as tuned.

TEST(PrefetchTuner, SmallGraphKeepsConfiguredDistance) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(512, 2048, 3));
  ASSERT_LT(g.num_vertices(), kPrefetchProbeMinVertices);
  BFSOptions base;
  base.num_threads = 2;
  base.prefetch_distance = 7;
  const PrefetchPlan plan =
      tune_prefetch(g, base, "BFS_CL_H", 2, /*autotune=*/true);
  EXPECT_FALSE(plan.single_source.probed);
  EXPECT_FALSE(plan.wave.probed);
  EXPECT_FALSE(plan.kernel.probed);
  EXPECT_EQ(plan.single_source.distance, 7);
  EXPECT_EQ(plan.wave.distance, 7);
  EXPECT_EQ(plan.kernel.distance, 7);
}

TEST(PrefetchTuner, AutotuneOffKeepsConfiguredDistance) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(512, 2048, 3));
  BFSOptions base;
  base.num_threads = 2;
  base.prefetch_distance = 8;
  const PrefetchPlan plan =
      tune_prefetch(g, base, "BFS_CL_H", 2, /*autotune=*/false);
  EXPECT_FALSE(plan.single_source.probed);
  EXPECT_EQ(plan.single_source.distance, 8);
}

TEST(PrefetchTuner, ServiceStatsReportProvenanceAndTopology) {
  const auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(600, 4000, 7)));
  ServiceConfig config;
  config.num_threads = 2;
  config.bfs.prefetch_distance = 8;
  BfsService service(config);
  service.register_graph(graph);

  const ServiceStats stats = service.stats();
  // 600 vertices is below the probe floor: the old implementation
  // reported distance 8 as if it had been measured; now the provenance
  // string makes the skip visible.
  EXPECT_EQ(stats.prefetch_provenance, "configured");
  EXPECT_EQ(stats.prefetch_distance, 8);
  EXPECT_EQ(stats.wave_prefetch_distance, 8);
  EXPECT_EQ(stats.kernel_prefetch_distance, 8);
  EXPECT_GE(stats.sockets, 1);
  EXPECT_FALSE(stats.thp_mode.empty());
  EXPECT_GE(stats.pinned_threads, 0);
}

}  // namespace
}  // namespace optibfs
