// Baseline-specific behaviour beyond the shared correctness matrix.
#include <gtest/gtest.h>

#include "baselines/hong_bfs.hpp"
#include "baselines/pbfs.hpp"
#include "core/bfs_serial.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "harness/source_sampler.hpp"
#include "harness/verifier.hpp"

namespace optibfs {
namespace {

TEST(Pbfs, LargeLayersExerciseBagSplitting) {
  // A star forces one giant layer (all leaves at level 1): the layer bag
  // carries multiple pennant ranks and must split across tasks.
  const CsrGraph g = CsrGraph::from_edges(gen::star(20000));
  BFSOptions options;
  options.num_threads = 4;
  PBFS bfs(g, options);
  BFSResult r;
  bfs.run(0, r);
  EXPECT_TRUE(verify_against_serial(g, 0, r).ok);
  EXPECT_EQ(r.num_levels, 2);
}

TEST(Pbfs, CountersTrackWork) {
  const CsrGraph g = CsrGraph::from_edges(gen::erdos_renyi(2000, 20000, 8));
  BFSOptions options;
  options.num_threads = 4;
  PBFS bfs(g, options);
  BFSResult r;
  bfs.run(0, r);
  EXPECT_GE(r.vertices_explored, r.vertices_visited);
  EXPECT_GT(r.edges_scanned, 0u);
}

TEST(HongVariants, NamesAreStable) {
  EXPECT_EQ(hong_variant_name(HongVariant::kQueue), "HONG_QUEUE");
  EXPECT_EQ(hong_variant_name(HongVariant::kRead), "HONG_READ");
  EXPECT_EQ(hong_variant_name(HongVariant::kHybrid), "HONG_HYBRID");
  EXPECT_EQ(hong_variant_name(HongVariant::kHybridBitmap),
            "HONG_LOCAL_BITMAP");
}

TEST(HongHybrid, SwitchesModesOnWideGraphs) {
  // A star from the hub: level-1 frontier is n-1 vertices, far above
  // the read-mode threshold, so the hybrid must take the read path and
  // still produce exact levels.
  const CsrGraph g = CsrGraph::from_edges(gen::star(5000));
  BFSOptions options;
  options.num_threads = 4;
  const auto bfs = make_bfs("HONG_HYBRID", g, options);
  BFSResult r;
  bfs->run(5, r);  // leaf source: hub at level 1, everything else level 2
  EXPECT_TRUE(verify_against_serial(g, 5, r).ok);
  EXPECT_EQ(r.num_levels, 3);
}

TEST(HongQueue, NoDuplicateExplorations) {
  // The bitmap claim makes exploration exact — this is the property the
  // IPDPSW paper trades away for lock/atomic freedom.
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(11, 32, 4));
  BFSOptions options;
  options.num_threads = 8;
  const auto bfs = make_bfs("HONG_QUEUE", g, options);
  BFSResult r;
  bfs->run(0, r);
  EXPECT_EQ(r.duplicate_explorations(), 0u);
}

TEST(DirectionOptimizing, UsesBottomUpOnLowDiameterGraphs) {
  // Dense RMAT: the second level covers most of the graph, which must
  // trigger the alpha switch. Correctness is checked by the matrix test;
  // here we check the traversal actually saves edge scans vs. pure
  // top-down (the entire point of the hybrid).
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(12, 32, 6));
  BFSOptions options;
  options.num_threads = 4;
  const auto hybrid = make_bfs("DO_BFS", g, options);
  const auto topdown = make_bfs("HONG_QUEUE", g, options);
  BFSResult rh, rt;
  hybrid->run(0, rh);
  topdown->run(0, rt);
  ASSERT_TRUE(verify_against_serial(g, 0, rh).ok);
  EXPECT_LT(rh.edges_scanned, rt.edges_scanned)
      << "bottom-up short-circuiting should scan fewer edges";
}

TEST(DirectionOptimizing, HighDiameterStaysTopDown) {
  const CsrGraph g = CsrGraph::from_edges(gen::path(500));
  BFSOptions options;
  options.num_threads = 4;
  const auto bfs = make_bfs("DO_BFS", g, options);
  BFSResult r;
  bfs->run(0, r);
  EXPECT_TRUE(verify_against_serial(g, 0, r).ok);
}

}  // namespace
}  // namespace optibfs
