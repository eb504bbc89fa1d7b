// Out-of-core storage tier (src/storage/, DESIGN.md section 12):
// binary-CSR-v2 round trips, corruption rejection with byte-offset
// diagnostics, heap-vs-mmap behavioral parity across engines and
// reorder policies, budget-driven interval eviction, and the service /
// dynamic-graph integration points. The same source is folded into
// sanitize_tests, so mmap-backed traversal rides the TSan sweep: a
// thread stalled in a major fault must look like any other slow thread
// to the optimistic engines (no locks for it to convoy on).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/bfs_serial.hpp"
#include "core/registry.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/graph_props.hpp"
#include "kernels/kernel.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/reference.hpp"
#include "service/bfs_service.hpp"
#include "storage/binary_format.hpp"
#include "storage/mmap_storage.hpp"

namespace optibfs {
namespace {

// ---- the branch-free accessor contract (see csr_graph.hpp) ----
// check_storage_abi.cmake guards the vtable half (no virtual CsrGraph);
// these pin the accessor shapes so a refactor cannot quietly reroute
// the adjacency path through something heavier than a pointer load.
static_assert(!std::is_polymorphic_v<CsrGraph>,
              "CsrGraph must stay non-virtual (hot-path contract)");
static_assert(
    std::is_same_v<decltype(std::declval<const CsrGraph&>().out_neighbors(0)),
                   std::span<const vid_t>>,
    "out_neighbors must hand out a raw span");
static_assert(
    std::is_same_v<decltype(std::declval<const CsrGraph&>().out_offset(0)),
                   eid_t>,
    "out_offset must return the raw offset value");

std::string temp_path(const std::string& name) {
  // Per process: `ctest -j` runs this file's cases in three test
  // binaries at once, and a shared file would be clobbered mid-case.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

CsrGraph test_graph(std::uint64_t seed = 7) {
  return CsrGraph::from_edges(gen::rmat(10, 8, seed));
}

io::CsrLoadOptions mmap_load(std::uint64_t budget = 0,
                             std::uint64_t interval = 0) {
  io::CsrLoadOptions load;
  load.storage = storage::StorageKind::kMmap;
  load.budget_bytes = budget;
  load.interval_bytes = interval;
  return load;
}

/// EXPECT_THROW with a substring check on the message.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected std::runtime_error containing '" << fragment << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(Storage, HeapStorageIsTheDefault) {
  const CsrGraph g = test_graph();
  EXPECT_EQ(g.storage_kind(), storage::StorageKind::kHeap);
  const storage::StorageStats s = g.storage_stats();
  EXPECT_EQ(s.map_bytes, (std::uint64_t{g.num_vertices()} + 1) * sizeof(eid_t) +
                             g.num_edges() * sizeof(vid_t));
  EXPECT_EQ(s.hot_bytes, s.map_bytes);  // heap is always fully resident
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.major_faults, 0u);
}

TEST(Storage, RoundTripHeapAndMmap) {
  const CsrGraph original = test_graph();
  const std::string path = temp_path("optibfs_storage_rt.bin");
  io::write_binary_csr(path, original);

  const CsrGraph heap = io::read_binary_csr(path);
  const CsrGraph mapped = io::read_binary_csr(path, mmap_load());
  EXPECT_EQ(heap.storage_kind(), storage::StorageKind::kHeap);
  EXPECT_EQ(mapped.storage_kind(), storage::StorageKind::kMmap);

  for (const CsrGraph* g : {&heap, &mapped}) {
    ASSERT_EQ(g->num_vertices(), original.num_vertices());
    ASSERT_EQ(g->num_edges(), original.num_edges());
    EXPECT_EQ(g->max_out_degree(), original.max_out_degree());
    ASSERT_TRUE(std::equal(g->offsets().begin(), g->offsets().end(),
                           original.offsets().begin()));
    ASSERT_TRUE(std::equal(g->targets().begin(), g->targets().end(),
                           original.targets().begin()));
  }
  EXPECT_GT(mapped.storage_stats().map_bytes,
            heap.storage_stats().map_bytes);  // file incl. header/padding
  std::remove(path.c_str());
}

TEST(Storage, RoundTripPreservesPermutation) {
  const CsrGraph reordered = test_graph().reorder(ReorderPolicy::kHubCluster);
  ASSERT_TRUE(reordered.is_reordered());
  const std::string path = temp_path("optibfs_storage_perm.bin");
  io::write_binary_csr(path, reordered);

  for (const auto kind :
       {storage::StorageKind::kHeap, storage::StorageKind::kMmap}) {
    io::CsrLoadOptions load;
    load.storage = kind;
    const CsrGraph loaded = io::read_binary_csr(path, load);
    ASSERT_TRUE(loaded.is_reordered());
    ASSERT_TRUE(std::equal(loaded.perm().begin(), loaded.perm().end(),
                           reordered.perm().begin()));
    // Queries stay in original IDs: the round trip must answer
    // to_internal/to_original exactly as the in-RAM reordered graph.
    for (vid_t v = 0; v < loaded.num_vertices(); v += 37) {
      EXPECT_EQ(loaded.to_internal(v), reordered.to_internal(v));
      EXPECT_EQ(loaded.to_original(loaded.to_internal(v)), v);
    }
  }
  std::remove(path.c_str());
}

TEST(Storage, EmptyAndEdgelessGraphsRoundTrip) {
  EdgeList lonely(3);  // vertices but no edges: empty targets section
  const CsrGraph original = CsrGraph::from_edges(lonely);
  const std::string path = temp_path("optibfs_storage_edgeless.bin");
  io::write_binary_csr(path, original);
  for (const auto kind :
       {storage::StorageKind::kHeap, storage::StorageKind::kMmap}) {
    io::CsrLoadOptions load;
    load.storage = kind;
    const CsrGraph loaded = io::read_binary_csr(path, load);
    EXPECT_EQ(loaded.num_vertices(), 3u);
    EXPECT_EQ(loaded.num_edges(), 0u);
    EXPECT_EQ(loaded.out_degree(1), 0u);
  }
  std::remove(path.c_str());
}

TEST(Storage, V1FormatRejectedWithRegenerationHint) {
  const std::string path = temp_path("optibfs_storage_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = storage::kBinaryMagicV1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    const std::vector<char> filler(8192, 0);
    out.write(filler.data(), static_cast<std::streamsize>(filler.size()));
  }
  expect_error_containing([&] { (void)io::read_binary_csr(path); },
                          "format v1");
  expect_error_containing([&] { (void)io::read_binary_csr(path, mmap_load()); },
                          "regenerate");
  std::remove(path.c_str());
}

TEST(Storage, TruncatedFileRejectedWithByteOffset) {
  const CsrGraph original = test_graph();
  const std::string path = temp_path("optibfs_storage_trunc.bin");
  io::write_binary_csr(path, original);
  const auto full = std::filesystem::file_size(path);
  // Cut into the targets section: header still validates up to the
  // length check, which must name the actual and promised sizes.
  std::filesystem::resize_file(path, full - 64);
  expect_error_containing([&] { (void)io::read_binary_csr(path); },
                          "truncated at byte offset " +
                              std::to_string(full - 64));
  expect_error_containing([&] { (void)io::read_binary_csr(path, mmap_load()); },
                          "truncated");
  // Cut into the header itself.
  std::filesystem::resize_file(path, 17);
  EXPECT_THROW((void)io::read_binary_csr(path), std::runtime_error);
  EXPECT_THROW((void)io::read_binary_csr(path, mmap_load()),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Storage, CorruptedHeaderRejectedByChecksum) {
  const CsrGraph original = test_graph();
  const std::string path = temp_path("optibfs_storage_corrupt.bin");
  io::write_binary_csr(path, original);
  {
    // Flip one byte inside num_vertices: the field still parses, the
    // checksum chain does not.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(
        offsetof(storage::BinaryCsrHeader, num_vertices)));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(
        offsetof(storage::BinaryCsrHeader, num_vertices)));
    f.write(&byte, 1);
  }
  expect_error_containing([&] { (void)io::read_binary_csr(path); },
                          "checksum mismatch");
  expect_error_containing([&] { (void)io::read_binary_csr(path, mmap_load()); },
                          "checksum mismatch");
  std::remove(path.c_str());
}

TEST(Storage, GarbageFileRejected) {
  const std::string path = temp_path("optibfs_storage_garbage.bin");
  std::ofstream(path, std::ios::binary) << "definitely not a graph";
  EXPECT_THROW((void)io::read_binary_csr(path, mmap_load()),
               std::runtime_error);
  std::remove(path.c_str());
}

// Heap-vs-mmap parity: identical BFS levels, kernel outputs, and
// structural fingerprints, across two reorder policies and both engine
// families. This is the acceptance gate for "same graph, different
// bytes-provenance".
TEST(Storage, HeapMmapParityAcrossEnginesAndReorder) {
  for (const ReorderPolicy policy :
       {ReorderPolicy::kNone, ReorderPolicy::kHubCluster}) {
    CsrGraph built = test_graph(11);
    if (policy != ReorderPolicy::kNone) built = built.reorder(policy);
    const std::string path = temp_path("optibfs_storage_parity.bin");
    io::write_binary_csr(path, built);

    const CsrGraph heap = io::read_binary_csr(path);
    const CsrGraph mapped = io::read_binary_csr(path, mmap_load());
    EXPECT_EQ(structural_fingerprint(heap), structural_fingerprint(mapped));
    EXPECT_EQ(structural_fingerprint(heap), structural_fingerprint(built));

    BFSOptions opts;
    opts.num_threads = 2;
    const std::vector<vid_t> sources{0, 1, 17};
    for (const char* algo : {"BFS_CL", "BFS_WSL", "BFS_ASYNC"}) {
      auto on_heap = make_bfs(algo, heap, opts);
      auto on_mmap = make_bfs(algo, mapped, opts);
      for (const vid_t source : sources) {
        const BFSResult a = on_heap->run(source);
        const BFSResult b = on_mmap->run(source);
        ASSERT_EQ(a.level, b.level)
            << algo << " diverged across backends (policy "
            << reorder_policy_name(policy) << ", source " << source << ")";
        ASSERT_EQ(a.level, bfs_serial(heap, source).level);
      }
    }
    {
      // CC converges to a unique fixed point — labels must match
      // exactly across backends.
      kernels::KernelResult a, b;
      kernels::make_kernel("CC", heap, opts)->run(a);
      kernels::make_kernel("CC", mapped, opts)->run(b);
      ASSERT_EQ(a.labels, b.labels)
          << "CC diverged across backends (policy "
          << reorder_policy_name(policy) << ")";
    }
    {
      // MIS is schedule-dependent (any maximal independent set is
      // valid), so each backend's answer is checked by the validator
      // rather than compared bit-for-bit.
      kernels::KernelResult a, b;
      kernels::make_kernel("MIS", heap, opts)->run(a);
      kernels::make_kernel("MIS", mapped, opts)->run(b);
      std::string why;
      ASSERT_TRUE(kernels::mis_validate(heap, a.labels, &why)) << why;
      ASSERT_TRUE(kernels::mis_validate(mapped, b.labels, &why)) << why;
    }
    std::remove(path.c_str());
  }
}

TEST(Storage, MmapRunCarriesStorageCounters) {
  const CsrGraph original = test_graph();
  const std::string path = temp_path("optibfs_storage_counters.bin");
  io::write_binary_csr(path, original);
  const CsrGraph mapped = io::read_binary_csr(path, mmap_load());
  BFSOptions opts;
  opts.num_threads = 2;
  auto engine = make_bfs("BFS_CL", mapped, opts);
  const BFSResult result = engine->run(0);
  using telemetry::Counter;
  EXPECT_EQ(result.counters[Counter::kStorageMapBytes],
            mapped.storage_stats().map_bytes);
  std::remove(path.c_str());
}

TEST(Storage, BudgetEvictsColdIntervals) {
  const CsrGraph original = test_graph(13);
  const std::string path = temp_path("optibfs_storage_budget.bin");
  io::write_binary_csr(path, original);
  // Two-page budget over page-sized intervals: walking the whole
  // adjacency must cycle the FIFO.
  const CsrGraph mapped =
      io::read_binary_csr(path, mmap_load(/*budget=*/8192, /*interval=*/4096));
  const vid_t n = mapped.num_vertices();
  const vid_t step = std::max<vid_t>(n / 64, 1);
  for (vid_t v = 0; v + step <= n; v += step) {
    mapped.advise_out_interval(v, v + step, storage::Advice::kWillNeed);
  }
  storage::StorageStats s = mapped.storage_stats();
  EXPECT_GT(s.advise_calls, 0u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.hot_bytes, 8192u);
  EXPECT_EQ(s.budget_bytes, 8192u);

  mapped.storage_evict_cold();
  s = mapped.storage_stats();
  EXPECT_EQ(s.hot_bytes, 0u);

  // Traversal under the cap still answers exactly (graceful
  // degradation, never wrong answers).
  BFSOptions opts;
  opts.num_threads = 2;
  opts.storage_budget_bytes = 8192;
  const BFSResult result = make_bfs("BFS_CL", mapped, opts)->run(0);
  EXPECT_EQ(result.level, bfs_serial(original, 0).level);
  std::remove(path.c_str());
}

TEST(Storage, EdgemapAdvisesOnMmapGraphs) {
  const CsrGraph original = test_graph(17);
  const std::string path = temp_path("optibfs_storage_edgemap.bin");
  io::write_binary_csr(path, original);
  const CsrGraph mapped =
      io::read_binary_csr(path, mmap_load(/*budget=*/16384, /*interval=*/4096));
  const std::uint64_t before = mapped.storage_stats().advise_calls;
  BFSOptions opts;
  opts.num_threads = 2;
  kernels::KernelResult result;
  kernels::make_kernel("CC", mapped, opts)->run(result);
  // The dense-round batcher hints each owned slice (advise_dense_round);
  // a CC run has at least one dense round, so calls must have moved.
  EXPECT_GT(mapped.storage_stats().advise_calls, before);
  ASSERT_EQ(result.labels, kernels::cc_reference(mapped));
  std::remove(path.c_str());
}

TEST(Storage, ServiceRegistersGraphFiles) {
  const CsrGraph original = test_graph(19);
  const std::string path = temp_path("optibfs_storage_service.bin");
  io::write_binary_csr(path, original);

  ServiceConfig config;
  config.num_threads = 2;
  config.storage_budget_bytes = 1 << 20;
  BfsService service(config);
  service.register_graph_file(path);

  const QueryResult result = service.distance(0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.levels, bfs_serial(original, 0).level);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.storage_backend, "mmap");
  EXPECT_GT(stats.storage_map_bytes, 0u);
  EXPECT_EQ(stats.storage_budget_bytes, std::uint64_t{1} << 20);
  // mmap registration skips the reorder autotune (an in-RAM reordered
  // copy would defeat demand-paging).
  EXPECT_EQ(stats.reorder_policy, "none");
  std::remove(path.c_str());
}

TEST(Storage, DynamicCompactionIntoFileBackedCsr) {
  EdgeList el(64);
  for (vid_t v = 0; v + 1 < 64; ++v) el.add_unchecked(v, v + 1);
  const std::string path = temp_path("optibfs_storage_compact.bin");
  DynamicGraph::Config config;
  config.compact_threshold = 10.0;  // compact only when asked
  config.compact_storage_path = path;
  DynamicGraph dyn(std::make_shared<const CsrGraph>(CsrGraph::from_edges(el)),
                   config);

  UpdateBatch batch;
  batch.insert(63, 0);
  batch.insert(10, 40);
  batch.erase(5, 6);
  dyn.apply(batch);
  ASSERT_TRUE(dyn.has_delta());
  const CsrGraph oracle = CsrGraph::from_edges(dyn.snapshot().to_edge_list());

  ASSERT_TRUE(dyn.compact());
  EXPECT_FALSE(dyn.has_delta());
  // The new base is served straight from the compaction file.
  EXPECT_EQ(dyn.base_csr()->storage_kind(), storage::StorageKind::kMmap);
  EXPECT_EQ(structural_fingerprint(*dyn.base_csr()),
            structural_fingerprint(oracle));

  // A second compaction rewrites the same path (unlink-then-write), and
  // the snapshot taken before it keeps traversing the old inode.
  const GraphSnapshot pinned = dyn.snapshot();
  const eid_t edges_before = pinned.num_edges();
  UpdateBatch more;
  more.insert(0, 32);
  dyn.apply(more);
  ASSERT_TRUE(dyn.compact());
  EXPECT_EQ(pinned.num_edges(), edges_before);
  EXPECT_EQ(dyn.base_csr()->storage_kind(), storage::StorageKind::kMmap);
  EXPECT_EQ(dyn.base_csr()->num_edges(), edges_before + 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optibfs
