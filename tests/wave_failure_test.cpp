// An MS-BFS wave that cannot grow its level planes fails cleanly.
//
// A wave allocates inside its team region only when it goes deeper than
// any earlier wave on the session: the barrier window then grows the
// next level plane. This binary replaces the global operator new with
// one that throws std::bad_alloc while armed, for requests made off the
// thread that runs the wave — that is, by the team's members. It is
// named outside the test_*.cpp glob on purpose: folded into unit_tests,
// the hook would replace every other test's allocator too.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "core/bfs_serial.hpp"
#include "core/msbfs.hpp"
#include "graph/edge_list.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::thread::id> g_caller;  // the thread that runs the wave

void* checked_alloc(std::size_t size, std::size_t align) {
  if (g_armed.load(std::memory_order_acquire) &&
      std::this_thread::get_id() != g_caller.load(std::memory_order_acquire)) {
    throw std::bad_alloc();
  }
  const std::size_t bytes = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, bytes == 0 ? align : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) {
  return checked_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace optibfs {
namespace {

/// Runs `wave` on a helper thread, armed when `armed`. A wave whose
/// members stay parked at a barrier would never return, so after 60 s
/// without an answer the test reports it and ends the process.
void run_wave_within_deadline(bool armed, const std::function<void()>& wave) {
  std::packaged_task<void()> task([&] {
    g_caller.store(std::this_thread::get_id(), std::memory_order_release);
    g_armed.store(armed, std::memory_order_release);
    try {
      wave();
    } catch (...) {
      g_armed.store(false, std::memory_order_release);
      throw;
    }
    g_armed.store(false, std::memory_order_release);
  });
  std::future<void> done = task.get_future();
  std::thread helper(std::move(task));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "the wave did not return within 60 s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  helper.join();
  done.get();
}

void expect_matches_serial(const CsrGraph& g, const std::vector<vid_t>& sources,
                           const MsBfsResult& wave) {
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const BFSResult oracle = bfs_serial(g, sources[s]);
    EXPECT_EQ(wave.distance[s], oracle.level) << "source " << sources[s];
    EXPECT_EQ(wave.vertices_explored[s], oracle.vertices_visited);
  }
}

TEST(WaveFailure, PlaneGrowthThatThrowsFailsTheWaveCleanly) {
  // A directed chain: a source's depth is the distance to its end.
  EdgeList chain(300);
  for (vid_t v = 0; v + 1 < 300; ++v) chain.add_unchecked(v, v + 1);
  const CsrGraph g = CsrGraph::from_edges(chain);
  BFSOptions options;
  options.num_threads = 2;
  MsBfsSession session(g, options);
  MsBfsResult out;

  // Depth 8 at most: planes 0..3.
  const std::vector<vid_t> shallow{291, 296};
  run_wave_within_deadline(false, [&] { session.run(shallow, out); });
  expect_matches_serial(g, shallow, out);

  // Depth 299 needs planes 4..8. out already holds two rows, so the
  // planes are the only allocation, and it happens on a member.
  const std::vector<vid_t> deep{0, 150};
  EXPECT_THROW(
      run_wave_within_deadline(true, [&] { session.run(deep, out); }),
      std::bad_alloc);

  // The failed wave left no mask, plane or queue entry behind.
  run_wave_within_deadline(false, [&] { session.run(deep, out); });
  expect_matches_serial(g, deep, out);
  run_wave_within_deadline(false, [&] { session.run(shallow, out); });
  expect_matches_serial(g, shallow, out);

  // Once the session has been that deep, an armed wave allocates
  // nothing off the caller's thread and succeeds.
  run_wave_within_deadline(true, [&] { session.run(deep, out); });
  expect_matches_serial(g, deep, out);
}

}  // namespace
}  // namespace optibfs
