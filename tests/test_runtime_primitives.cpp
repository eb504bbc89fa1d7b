// RNG, spin lock, spin barrier, topology, cache alignment, placed
// buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "runtime/cache_aligned.hpp"
#include "runtime/mem_topology.hpp"
#include "runtime/rng.hpp"
#include "runtime/spin_barrier.hpp"
#include "runtime/spin_lock.hpp"
#include "runtime/topology.hpp"

namespace optibfs {
namespace {

TEST(Rng, DeterministicStreams) {
  Xoshiro256 a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Xoshiro256 a2(7), c2(8);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(SpinLock, MutualExclusionUnderContention) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;  // data race if the lock is broken
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(SpinLock, TryLockSemantics) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinBarrier, ExactlyOneLastArriverPerPhase) {
  constexpr int kThreads = 6;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> last_count{0};
  std::atomic<int> phase_sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < kPhases; ++phase) {
        if (barrier.arrive_and_wait()) last_count.fetch_add(1);
        phase_sum.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(last_count.load(), kPhases);
  EXPECT_EQ(phase_sum.load(), kThreads * kPhases);
}

TEST(SpinBarrier, OrdersWritesAcrossPhases) {
  constexpr int kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::vector<int> data(kThreads, 0);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 1; round <= 100; ++round) {
        data[static_cast<std::size_t>(t)] = round;
        barrier.arrive_and_wait();
        // Everyone must observe everyone's write for this round.
        for (int u = 0; u < kThreads; ++u) {
          if (data[static_cast<std::size_t>(u)] != round) failed = true;
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(Topology, FlatPutsEveryoneOnOneSocket) {
  const Topology topo = Topology::flat(8);
  EXPECT_EQ(topo.num_sockets(), 1);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(topo.socket_of(t), 0);
  EXPECT_EQ(topo.socket_peers(3).size(), 8u);
}

TEST(Topology, BlockAssignment) {
  const Topology topo(8, 2);
  EXPECT_EQ(topo.num_sockets(), 2);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(topo.socket_of(t), 0);
  for (int t = 4; t < 8; ++t) EXPECT_EQ(topo.socket_of(t), 1);
  EXPECT_EQ(topo.socket_peers(1).size(), 4u);
  EXPECT_EQ(topo.socket_peers(6).size(), 4u);
}

TEST(Topology, MoreSocketsThanThreadsClamps) {
  const Topology topo(2, 8);
  EXPECT_LE(topo.num_sockets(), 2);
  EXPECT_EQ(topo.num_threads(), 2);
}

TEST(Topology, UnevenSplit) {
  const Topology topo(5, 2);
  int total = 0;
  for (int s = 0; s < topo.num_sockets(); ++s) {
    // Peers of the first thread on each socket.
    total = 0;
    for (int t = 0; t < 5; ++t) {
      if (topo.socket_of(t) == s) ++total;
    }
    EXPECT_GT(total, 0);
  }
}

TEST(CacheAligned, ElementsDoNotShareLines) {
  std::vector<CacheAligned<int>> padded(4);
  for (std::size_t i = 0; i + 1 < padded.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&padded[i].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&padded[i + 1].value);
    EXPECT_GE(b - a, kCacheLineSize);
    EXPECT_EQ(a % kCacheLineSize, 0u);
  }
}

// Kept out of sanitize_tests: TSan's allocator aborts on an oversized
// request instead of throwing std::bad_alloc.
TEST(PlacedBuffer, FailedGrowLeavesAnEmptyUsableBuffer) {
  mem::PlacedBuffer<std::uint64_t> buf;
  buf.grow(16, /*huge=*/false);
  ASSERT_EQ(buf.size(), 16u);
  // About 2^62 bytes: no allocator can satisfy it.
  EXPECT_THROW(buf.grow(std::size_t{1} << 59, /*huge=*/false), std::bad_alloc);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_EQ(buf.capacity_bytes(), 0u);
  // An engine's next run grows again (size() < n) and gets real memory.
  buf.grow(32, /*huge=*/false);
  ASSERT_EQ(buf.size(), 32u);
  ASSERT_NE(buf.data(), nullptr);
  for (std::uint64_t i = 0; i < 32; ++i) buf[i] = i;
  EXPECT_EQ(buf[31], 31u);
}

}  // namespace
}  // namespace optibfs
