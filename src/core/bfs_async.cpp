#include "core/bfs_async.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace optibfs {
namespace {

using namespace telemetry;

/// Consecutive empty pop rounds before a thread raises its idle flag
/// (and, for thread 0, starts running the termination scan). Small on
/// purpose: rounds already yield, and a false positive only costs one
/// verification window.
constexpr int kIdleThreshold = 4;
/// Every this-many failed d-choice rounds, fall back to a full linear
/// sweep so a lone surviving batch is found without coupon-collecting.
constexpr int kScanEvery = 8;

std::uint32_t clamp_batch(int b) {
  if (b < 1) return 1;
  if (b > 4096) return 4096;
  return static_cast<std::uint32_t>(b);
}

/// Per-subqueue ring capacity: sized so the whole frontier fits in the
/// rings with ~4x slack before the overflow fallback engages.
std::size_t subqueue_capacity(vid_t n, int total_subqueues,
                              std::uint32_t batch) {
  const std::size_t denom =
      static_cast<std::size_t>(total_subqueues) * batch;
  return std::size_t{64} + (std::size_t{n} * 4) / (denom ? denom : 1);
}

}  // namespace

AsyncBFS::AsyncBFS(const CsrGraph& graph, BFSOptions opts, TeamHandle team)
    : graph_(graph),
      opts_(opts),
      p_(team.width()),
      batch_(clamp_batch(opts.async_batch_size)),
      wipe_mode_(graph.num_vertices() >= (vid_t{1} << 24)),
      queue_(p_, opts.async_subqueues < 1 ? 1 : opts.async_subqueues,
             subqueue_capacity(
                 graph.num_vertices(),
                 p_ * (opts.async_subqueues < 1 ? 1 : opts.async_subqueues),
                 clamp_batch(opts.async_batch_size))),
      barrier_(p_),
      workers_(static_cast<std::size_t>(p_)),
      counters_(p_),
      team_(std::move(team)) {
  if (opts_.storage_budget_bytes != 0) {
    graph_.set_storage_budget(opts_.storage_budget_bytes);
  }
}

void AsyncBFS::run(vid_t source, BFSResult& out) {
  const vid_t n = graph_.num_vertices();
  if (source >= n) {
    throw std::out_of_range("ParallelBFS::run: source out of range");
  }
  const vid_t src = graph_.to_internal(source);
  // Storage-tier baseline for per-run counter deltas (DESIGN.md §12).
  const storage::StorageStats storage_before = graph_.storage_stats();

  // Arena bookkeeping mirrors BFSEngineBase: a run that finds every
  // buffer already sized is a "reuse" (the service's zero-allocation
  // steady state). The epoch byte replaces the O(n) wipe; epochs cycle
  // 0..254 so the 0xFF fill byte can never read as current.
  const bool grew = pd_.size() < n || out.level.capacity() < n ||
                    out.parent.capacity() < n;
  bool wiped = false;
  if (pd_.size() < n) {
    pd_.assign(n, kUnvisitedWord);
    wiped = true;
  }
  out.level.resize(n);
  out.parent.resize(n);
  if (grew) {
    ++arena_.allocations;
  } else {
    ++arena_.reuses;
  }
  if (wiped) {
    epoch_ = 0;
  } else if (wipe_mode_) {
    // Depth needs the full 32 bits (n >= 2^24 could exceed 24-bit
    // depths), so there is no room for a stamp: wipe per run.
    std::fill(pd_.begin(), pd_.end(), kUnvisitedWord);
    epoch_ = 0;
  } else if (++epoch_ == 255) {
    std::fill(pd_.begin(), pd_.end(), kUnvisitedWord);
    epoch_ = 0;
    ++arena_.epoch_wraps;
  }

  out.num_levels = 0;
  out.vertices_visited = 0;
  out.vertices_explored = 0;
  out.edges_scanned = 0;
  out.steal_stats = {};
  out.claim_skips = 0;
  out.level_sizes.clear();
  out.serial_levels = 0;
  out.bottom_up_levels = 0;
  out_ = &out;

  counters_.reset();
  queue_.reset();
  done_.store(false, std::memory_order_relaxed);
  residual_.store(false, std::memory_order_relaxed);
  for (int t = 0; t < p_; ++t) {
    Worker& w = state(t);
    w.tid = t;
    w.ctr = counters_.slab(t);
    w.local.clear();
    w.local.reserve(batch_);
    w.overflow.clear();
    w.arena.configure(batch_);
    w.arena.reset();
    w.idle.store(0, std::memory_order_relaxed);
    w.visited_in_slice = 0;
    w.max_level_in_slice = 0;
    w.rng = Xoshiro256(opts_.seed * 0x9E3779B97F4A7C15ULL +
                       static_cast<std::uint64_t>(t) * 7919 + source);
  }

  // Seed: settle the source at depth 0 and publish a one-item batch.
  // Single-threaded here; team_.run's thread wakeups give the workers a
  // happens-before edge over these plain writes.
  pd_[src] = encode(0, src);
  {
    std::uint64_t* block = state(0).arena.allocate();
    block[0] = 1;
    block[1] = src;  // item = (depth 0) << 32 | src
    queue_.push(0, reinterpret_cast<std::uint64_t>(block));
  }

  team_.run([this](int tid) { worker(tid); });

  level_t max_level = 0;
  for (int t = 0; t < p_; ++t) {
    const Worker& w = state(t);
    out.vertices_visited += w.visited_in_slice;
    max_level = std::max(max_level, w.max_level_in_slice);
  }
  out.num_levels = max_level + 1;

  CounterSnapshot snap = counters_.aggregate();
  out.vertices_explored = snap[kVerticesExplored];
  out.edges_scanned = snap[kEdgesScanned];
  snap[kDuplicatePops] = out.duplicate_explorations();
  snap[kScratchReuses] = grew ? 0 : 1;
  const storage::StorageStats storage_after = graph_.storage_stats();
  snap[kStorageMapBytes] = storage_after.map_bytes;
  snap[kStorageAdviseCalls] =
      storage_after.advise_calls - storage_before.advise_calls;
  snap[kStorageEvictions] = storage_after.evictions - storage_before.evictions;
  snap[kStorageMajorFaults] =
      storage_after.major_faults - storage_before.major_faults;
  out.counters = snap;
  if (opts_.telemetry != nullptr) opts_.telemetry->add_counters(snap);

  // Fold newly malloc'd batch chunks into the allocation audit (zero in
  // steady state — blocks are bump-reset and reused across runs).
  std::uint64_t chunks = 0;
  for (int t = 0; t < p_; ++t) chunks += state(t).arena.chunks_allocated();
  if (chunks > block_chunks_seen_) {
    arena_.allocations += chunks - block_chunks_seen_;
    block_chunks_seen_ = chunks;
  }
  out_ = nullptr;
}

void AsyncBFS::worker(int tid) {
  Worker& w = state(tid);
  if (opts_.async_straggler_ms > 0 && p_ > 1 && tid == p_ - 1) {
    // Test-only: simulate a straggler that may arrive after the others
    // have already drained everything and terminated.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.async_straggler_ms));
  }
  std::uint64_t* ctr = w.ctr;
  for (;;) {  // region; re-entered when the residual check finds work
    int failures = 0;
    for (;;) {  // steady state: no barriers
      std::uint64_t payload = 0;
      if (!w.overflow.empty()) {
        payload = w.overflow.back();
        w.overflow.pop_back();
      } else {
        payload = queue_.pop(w.rng);
        if (payload == 0 && failures > 0 && failures % kScanEvery == 0) {
          payload = queue_.pop_scan();
        }
      }
      if (payload != 0) {
        if (failures >= kIdleThreshold) {
          w.idle.store(0, std::memory_order_release);
        }
        failures = 0;
        expand_block(w, reinterpret_cast<const std::uint64_t*>(payload));
        continue;
      }
      if (!w.local.empty()) {
        // Out of shared work but holding unsealed items: publish them
        // (or keep them as private overflow) and try again — a thread
        // never goes idle with invisible work in hand.
        flush_local(w);
        continue;
      }
      ++failures;
      ++ctr[kAsyncStealRounds];
      if (failures >= kIdleThreshold) {
        w.idle.store(1, std::memory_order_release);
        if (tid == 0) try_terminate();
        if (done_.load(std::memory_order_acquire)) break;
      }
      // Mandatory under oversubscription (this container has 1 core):
      // the thread holding the remaining work must get scheduled.
      std::this_thread::yield();
    }

    // Quiescent verification window — the region's only barriers. The
    // in-region scan is a heuristic (flags and sizes are sampled while
    // threads run); here every thread is parked, so the ring check is
    // exact: threads only exit with empty local buffers and empty
    // overflow lists, and a claimed batch is fully expanded before its
    // claimer can exit, so residual work is exactly head != tail.
    barrier_.arrive_and_wait();
    if (tid == 0) {
      const bool residual = !queue_.all_empty();
      residual_.store(residual, std::memory_order_relaxed);
      if (residual) {
        done_.store(false, std::memory_order_relaxed);
        ++ctr[kAsyncTerminationRounds];
      }
    }
    barrier_.arrive_and_wait();
    if (!residual_.load(std::memory_order_acquire)) break;
    // Monotone settling makes re-entry idempotent: re-expanding already
    // settled vertices produces no new improvements.
    w.idle.store(0, std::memory_order_release);
  }

  // Materialize: decode the packed words for this thread's slice and
  // scatter into `out` in original IDs (inv_perm is a bijection, so
  // each output slot has one writer). The verification barriers above
  // separate every traversal store from these plain reads.
  const vid_t n = graph_.num_vertices();
  const vid_t lo = static_cast<vid_t>(
      static_cast<std::uint64_t>(n) * static_cast<std::uint32_t>(tid) / p_);
  const vid_t hi = static_cast<vid_t>(static_cast<std::uint64_t>(n) *
                                      (static_cast<std::uint32_t>(tid) + 1) /
                                      p_);
  const vid_t* inv =
      graph_.inv_perm().empty() ? nullptr : graph_.inv_perm().data();
  BFSResult& out = *out_;
  for (vid_t v = lo; v < hi; ++v) {
    const std::uint64_t word = pd_[v];
    const std::uint32_t d = effective_depth(word);
    const vid_t orig = inv != nullptr ? inv[v] : v;
    if (d == kInfDepth) {
      out.level[orig] = kUnvisited;
      out.parent[orig] = kInvalidVertex;
    } else {
      out.level[orig] = static_cast<level_t>(d);
      ++w.visited_in_slice;
      w.max_level_in_slice =
          std::max(w.max_level_in_slice, static_cast<level_t>(d));
      const vid_t par = word_parent(word);
      out.parent[orig] = inv != nullptr ? inv[par] : par;
    }
  }
}

bool AsyncBFS::try_terminate() {
  if (done_.load(std::memory_order_relaxed)) return true;
  const std::uint64_t published = queue_.total_published();
  for (int t = 0; t < p_; ++t) {
    if (state(t).idle.load(std::memory_order_acquire) == 0) return false;
  }
  if (!queue_.all_empty()) return false;
  std::this_thread::yield();
  // Double scan: flags and rings must hold still across the window, and
  // no batch may have been published meanwhile. Still only a heuristic
  // (a thread may clear its flag right after the second scan) — the
  // barrier-quiescent residual check is the soundness backstop.
  for (int t = 0; t < p_; ++t) {
    if (state(t).idle.load(std::memory_order_acquire) == 0) return false;
  }
  if (!queue_.all_empty()) return false;
  if (queue_.total_published() != published) return false;
  done_.store(true, std::memory_order_release);
  return true;
}

void AsyncBFS::expand_block(Worker& w, const std::uint64_t* block) {
  // The ring slot's release/acquire pair published the block contents
  // (and for the seed block, the team wakeup did).
  const std::uint64_t count = block[0];
  for (std::uint64_t i = 1; i <= count; ++i) expand_item(w, block[i]);
}

void AsyncBFS::expand_item(Worker& w, std::uint64_t item) {
  const vid_t v = static_cast<vid_t>(item & 0xFFFFFFFFu);
  const std::uint32_t d = static_cast<std::uint32_t>(item >> 32);
  ++w.ctr[kVerticesExplored];
  const std::uint32_t eff = effective_depth(
      std::atomic_ref<std::uint64_t>(pd_[v]).load(std::memory_order_relaxed));
  if (eff < d) {
    // Someone settled v shallower after this item was queued; the
    // shallower settler queued its own item, so this one is pure waste.
    ++w.ctr[kAsyncWastedRelaxations];
    return;
  }
  const std::uint32_t nd = d + 1;
  const auto nbrs = graph_.out_neighbors(v);
  const std::size_t degree = nbrs.size();
  const std::size_t dist = opts_.prefetch_distance > 0
                               ? static_cast<std::size_t>(
                                     opts_.prefetch_distance)
                               : 0;
  for (std::size_t i = 0; i < degree; ++i) {
    if (dist != 0 && i + dist < degree) {
      __builtin_prefetch(&pd_[nbrs[i + dist]]);
      ++w.ctr[kPrefetchIssued];
    }
    const vid_t u = nbrs[i];
    ++w.ctr[kEdgesScanned];
    const std::uint32_t effu = effective_depth(
        std::atomic_ref<std::uint64_t>(pd_[u]).load(
            std::memory_order_relaxed));
    if (effu <= nd) {
      ++w.ctr[kRevisits];
      continue;
    }
    const int settled = settle_min(u, nd, v);
    if (settled == 0) {
      ++w.ctr[kAsyncLostSettles];  // edge-level: lost the settle race
      continue;
    }
    if (settled == 2) ++w.ctr[kAsyncRequeues];
    w.local.push_back((std::uint64_t{nd} << 32) | u);
    if (w.local.size() >= batch_) flush_local(w);
  }
}

void AsyncBFS::flush_local(Worker& w) {
  if (w.local.empty()) return;
  std::uint64_t* block = w.arena.allocate();
  block[0] = w.local.size();
  std::copy(w.local.begin(), w.local.end(), block + 1);
  w.local.clear();
  const std::uint64_t payload = reinterpret_cast<std::uint64_t>(block);
  if (!queue_.push(w.tid, payload)) {
    // All k own rings full: keep the sealed batch private (consumed
    // before the next shared pop) — backpressure without losing work.
    w.overflow.push_back(payload);
    ++w.ctr[kAsyncOverflowBlocks];
  }
}

}  // namespace optibfs
