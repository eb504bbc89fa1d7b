// A serving claim that throws fails its own queries, not the process.
//
// This binary replaces the global operator new with one that throws
// std::bad_alloc while armed, for large requests made off the test's
// own thread — the replica's kernel fill. It is named outside the
// test_*.cpp glob on purpose: folded into unit_tests, the hook would
// replace every other test's allocator too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "graph/generators.hpp"
#include "kernels/reference.hpp"
#include "service/bfs_service.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::thread::id g_test_thread;  // written before any service thread starts

/// Requests this large come from kernel fills, never from the claim
/// bookkeeping around them.
constexpr std::size_t kFailAtBytes = 4096;

}  // namespace

void* operator new(std::size_t size) {
  if (size >= kFailAtBytes && g_armed.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != g_test_thread) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace optibfs {
namespace {

TEST(ClaimFailure, ThrowingClaimFailsItsQueriesAndServiceRecovers) {
  g_test_thread = std::this_thread::get_id();
  auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(4096, 12000, 13)));
  const auto cc_ref = kernels::cc_reference(*graph);
  {
    ServiceConfig config;
    config.num_threads = 1;
    BfsService service(config);
    service.register_graph(graph);

    Query q;
    q.kind = QueryKind::kComponents;
    q.source = 7;
    g_armed.store(true, std::memory_order_release);
    auto failed = service.submit(q);
    EXPECT_THROW(failed.get(), std::bad_alloc);
    g_armed.store(false, std::memory_order_release);

    // The memo published nothing half-built: the same query now fills
    // it and answers exactly.
    const QueryResult ok = service.components_of(7);
    ASSERT_TRUE(ok.ok());
    EXPECT_FALSE(ok.cache_hit);
    EXPECT_EQ(ok.component, cc_ref[7]);
    EXPECT_EQ(ok.component_size,
              static_cast<std::uint64_t>(
                  std::count(cc_ref.begin(), cc_ref.end(), cc_ref[7])));
  }  // the service shuts down cleanly with the replica still alive
}

}  // namespace
}  // namespace optibfs
