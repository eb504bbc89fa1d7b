#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_team.hpp"
#include "test_util.hpp"

namespace optibfs {
namespace {

TEST(ThreadTeam, RunsEveryThreadIdExactlyOnce) {
  ThreadTeam team(6);
  std::vector<std::atomic<int>> hits(6);
  team.run([&](int tid) { hits[static_cast<std::size_t>(tid)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadTeam, ReusableAcrossManyRegions) {
  ThreadTeam team(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round) {
    team.run([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadTeam, RegionBlocksUntilAllFinish) {
  ThreadTeam team(4);
  std::atomic<int> done{0};
  team.run([&](int tid) {
    // Stagger completions; run() must still see all of them.
    std::this_thread::sleep_for(std::chrono::microseconds(tid * 200));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 4);
}

TEST(ThreadTeam, PropagatesWorkerException) {
  ThreadTeam team(3);
  EXPECT_THROW(
      team.run([](int tid) {
        if (tid == 1) throw std::runtime_error("worker boom");
      }),
      std::runtime_error);
  // Team must still be usable after a failed region.
  std::atomic<int> ok{0};
  team.run([&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 3);
}

TEST(ThreadTeam, SingleThreadTeamWorks) {
  ThreadTeam team(1);
  int value = 0;
  team.run([&](int tid) {
    EXPECT_EQ(tid, 0);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(ThreadTeam, RejectsNonPositiveCount) {
  EXPECT_THROW(ThreadTeam(0), std::invalid_argument);
  EXPECT_THROW(ThreadTeam(-3), std::invalid_argument);
}

TEST(TeamHandle, OwnsNowOrDeferredOrBorrowsTheTeamWidth) {
  std::thread([] {}).join();  // a sanitizer starts its helper thread here
  const long before = test::settled_thread_count();
  TeamHandle owned(3, /*pin=*/false);
  TeamHandle deferred(2, /*pin=*/false, /*deferred=*/true);
  EXPECT_EQ(owned.width(), 3);
  EXPECT_EQ(deferred.width(), 2);
  if (before >= 0) {
    EXPECT_EQ(test::settled_thread_count(), before + 3);
  }
  std::atomic<int> ran{0};
  owned.run([&](int) { ran.fetch_add(1); });
  deferred.run([&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
  if (before >= 0) {
    EXPECT_EQ(test::settled_thread_count(), before + 5);
  }
  EXPECT_EQ(owned.get().num_threads(), 3);
  EXPECT_EQ(TeamHandle(0, false).width(), 1);

  ThreadTeam team(2);
  TeamHandle borrowed(team);
  EXPECT_EQ(borrowed.width(), 2);
  EXPECT_EQ(&borrowed.get(), &team);
}

TEST(ThreadTeam, DistinctOsThreads) {
  ThreadTeam team(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  team.run([&](int) {
    std::lock_guard lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 4u);
}

}  // namespace
}  // namespace optibfs
