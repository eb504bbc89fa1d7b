#include "core/bfs_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace optibfs {

using enum telemetry::Counter;
using enum telemetry::EventName;

namespace {

/// Contiguous slice of [0, n) for thread tid of p.
std::pair<vid_t, vid_t> slice(vid_t n, int tid, int p) {
  const auto t = static_cast<std::uint64_t>(tid);
  const auto pp = static_cast<std::uint64_t>(p);
  return {static_cast<vid_t>(n * t / pp), static_cast<vid_t>(n * (t + 1) / pp)};
}

/// Topology policy resolution (DESIGN.md §13): num_sockets == 0 asks
/// for the physical machine; pin_threads alone also detects it (the pin
/// map needs real cpu ids) but the NUMA *policy* stays off unless
/// numa_aware says otherwise.
Topology make_engine_topology(int p, const BFSOptions& o) {
  if (o.numa_aware && o.num_sockets == 0) return Topology::physical(p);
  if (o.numa_aware) return Topology(p, std::max(1, o.num_sockets));
  if (o.pin_threads) return Topology::physical(p);
  return Topology::flat(p);
}

}  // namespace

BFSEngineBase::BFSEngineBase(std::string name, const CsrGraph& graph,
                             BFSOptions opts, TeamHandle team)
    : graph_(graph),
      opts_(opts),
      p_(team.width()),
      topology_(make_engine_topology(p_, opts)),
      // Slabs stay unfaulted until the first run's parallel region
      // zeroes each queue from its owner thread (first-touch).
      queues_(p_, graph.num_vertices() == 0 ? 1 : graph.num_vertices(),
              /*defer_init=*/true, opts.huge_pages),
      barrier_(p_),
      ts_(static_cast<std::size_t>(p_)),
      counters_(p_),
      // Hybrid engines advertise the registry's `_H` suffix so name()
      // round-trips through make_bfs (opts_ is initialized before name_).
      name_(opts_.direction_mode == DirectionMode::kHybrid
                ? std::move(name) + "_H"
                : std::move(name)),
      direction_(opts_.alpha, opts_.beta, graph.num_vertices()),
      team_(std::move(team)) {
  thp_baseline_ = opts_.huge_pages ? mem::anon_huge_bytes() : 0;
  if (opts_.parent_claim_dedup) {
    claim_ = std::vector<std::atomic<std::int32_t>>(graph_.num_vertices());
  }
  if (opts_.visited_bitmap_dedup) {
    visited_bits_ = std::vector<std::atomic<std::uint64_t>>(
        (static_cast<std::size_t>(graph_.num_vertices()) + 63) / 64);
  }
  if (opts_.direction_mode == DirectionMode::kHybrid) {
    // Materialize (and cache) the transpose up front so no hot path ever
    // touches the lazy-build lock; shared with the DO_BFS baseline.
    transpose_ = &graph_.transpose();
    const std::size_t words =
        (static_cast<std::size_t>(graph_.num_vertices()) + 63) / 64;
    // Word slices are owner-computes too, so these defer their zeroing
    // to the first run's parallel region like the arena buffers.
    placement_huge_advises_ +=
        frontier_bits_.grow(words, opts_.huge_pages) ? 1 : 0;
    if (opts_.bottom_up_word_scan) {
      placement_huge_advises_ +=
          unvisited_words_.grow(words, opts_.huge_pages) ? 1 : 0;
      placement_huge_advises_ +=
          discovered_words_.grow(words, opts_.huge_pages) ? 1 : 0;
    }
  }
  if (opts_.storage_budget_bytes != 0) {
    graph_.set_storage_budget(opts_.storage_budget_bytes);
  }
  placement_huge_advises_ += static_cast<std::uint32_t>(queues_.huge_advises());
  // CSR placement: huge pages for TLB reach; interleave the (already
  // touched at build time; MPOL_MF_MOVE migrates) adjacency across
  // sockets when the NUMA policy is live — there is no owner socket for
  // the shared read-only arrays, so spreading the bandwidth wins.
  if (opts_.huge_pages || (opts_.numa_aware && topology_.num_sockets() > 1)) {
    const storage::PlacementResult placed = graph_.place_storage(
        opts_.huge_pages, opts_.numa_aware && topology_.num_sockets() > 1);
    placement_huge_advises_ += placed.huge_advises;
    placement_numa_binds_ += placed.numa_binds;
  }
}

void BFSEngineBase::enable_scale_free() {
  if (opts_.degree_threshold != 0) {
    degree_threshold_ = opts_.degree_threshold;
  } else {
    const vid_t n = std::max<vid_t>(1, graph_.num_vertices());
    const auto mean =
        static_cast<vid_t>(graph_.num_edges() / n + 1);
    degree_threshold_ = std::max<vid_t>(64, 8 * mean);
  }
  draining_ = std::vector<CacheAligned<std::atomic<vid_t>>>(
      static_cast<std::size_t>(p_));
  for (auto& slot : draining_) slot->store(kInvalidVertex);
}

std::int64_t BFSEngineBase::segment_size(std::int64_t remaining) const {
  if (opts_.segment_size > 0) return opts_.segment_size;
  if (opts_.edge_balanced_segments) {
    // Target a fixed *edge* budget per dispatch: convert it to a vertex
    // count through the frontier's mean degree, so levels dominated by
    // fat vertices hand out proportionally shorter segments.
    const std::int64_t edge_budget = std::max<std::int64_t>(
        64, queues_.total_in_edges() / (4 * p_));
    const std::int64_t s = edge_budget / frontier_mean_degree_;
    return std::clamp<std::int64_t>(s, 1, 2048);
  }
  // Paper: s is recomputed after each dispatch from the frontier size
  // and p, so early dispatches hand out big slabs and the tail is
  // fine-grained for balance.
  const std::int64_t s = remaining / (4 * p_);
  return std::clamp<std::int64_t>(s, 1, 2048);
}

int BFSEngineBase::max_steal_attempts(int population) const {
  const int pop = std::max(1, population);
  const int log2p = std::max(
      1, static_cast<int>(std::bit_width(static_cast<unsigned>(pop))) - 1);
  return std::max(1, opts_.steal_attempt_factor * pop * log2p);
}

int BFSEngineBase::pick_victim(int tid, bool prefer_local) {
  ThreadState& st = state(tid);
  if (p_ <= 1) return tid;
  if (opts_.numa_aware && prefer_local) {
    const auto& peers = topology_.socket_peers(tid);
    if (peers.size() > 1) {
      const auto pick = peers[static_cast<std::size_t>(
          st.rng.next_below(peers.size()))];
      if (pick != tid) return pick;
      // fall through to a global pick on self-collision
    }
  }
  int victim = tid;
  while (victim == tid) {
    victim = static_cast<int>(
        st.rng.next_below(static_cast<std::uint64_t>(p_)));
  }
  return victim;
}

void BFSEngineBase::run(vid_t source, BFSResult& out) {
  const vid_t n = graph_.num_vertices();
  if (source >= n) {
    throw std::out_of_range("ParallelBFS::run: source out of range");
  }
  // Storage-tier baseline: the backend keeps cumulative residency
  // counters, so per-run deltas are computed here (cold path, before
  // any worker is dispatched) and folded into the snapshot after the
  // team joins. All-zero for heap-backed graphs.
  const storage::StorageStats storage_before = graph_.storage_stats();
  // Sources arrive in original IDs; the whole traversal below runs in
  // the graph's internal (possibly reordered) ID space, and the final
  // materialize pass scatters back. src == source when not reordered.
  const vid_t src = graph_.to_internal(source);

  // Arena bookkeeping: a run that finds every buffer already sized is a
  // "reuse" — the zero-allocation steady state the service relies on.
  const bool grew = stamped_level_.size() < n ||
                    out.level.capacity() < n || out.parent.capacity() < n;
  if (stamped_level_.size() < n) {
    // Allocation only — the "stamp 0 = epoch 0, never current" zeroing
    // happens in the first run's parallel region below, slice by slice,
    // so first-touch places each page on its owner's socket.
    placement_huge_advises_ +=
        stamped_level_.grow(n, opts_.huge_pages) ? 1 : 0;
    placement_huge_advises_ +=
        parent_scratch_.grow(n, opts_.huge_pages) ? 1 : 0;
  }
  out.level.resize(n);
  out.parent.resize(n);
  if (grew) {
    ++arena_.allocations;
  } else {
    ++arena_.reuses;
  }
  // Bumping the epoch is the entire "wipe": stamps from earlier runs
  // now decode as unvisited. On the (once per ~4e9 runs) wrap the
  // sentinel epoch 0 would become current, so wipe for real.
  if (++epoch_ == 0) {
    std::fill(stamped_level_.data(), stamped_level_.data() + n, stamp_t{0});
    epoch_ = 1;
    ++arena_.epoch_wraps;
  }
  const bool first_run = !first_run_done_;

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

  if (!opts_.clear_slots) {
    // Without the clearing trick, consumed slots keep their values, so
    // reuse requires an explicit wipe.
    queues_.hard_reset();
  }

  if (opts_.telemetry != nullptr && !trace_slots_acquired_) {
    // Bind one event-ring slot per worker, once per engine lifetime
    // (setup-time mutex; never touched again on hot paths).
    for (int t = 0; t < p_; ++t) {
      state(t).trace.attach(*opts_.telemetry,
                            std::string(name()) + ".t" + std::to_string(t));
    }
    trace_slots_acquired_ = true;
  }
  const std::uint64_t run_t0 = state(0).trace.now();

  team_.run([&](int tid) {
    ThreadState& st = state(tid);
    counters_.reset_slot(tid);
    st.ctr = counters_.slab(tid);
    st.hotspots.clear();
    st.has_work.store(false, std::memory_order_relaxed);
    st.rng = Xoshiro256(opts_.seed * 0x9E3779B97F4A7C15ULL +
                        static_cast<std::uint64_t>(tid) * 7919 + source);

    const auto [lo, hi] = slice(n, tid, p_);
    if (first_run) {
      // First-touch initialization (DESIGN.md §13): every placed buffer
      // is zeroed here, by the thread whose owner-computes slice the
      // pages belong to, so the faults land socket-locally (and, with
      // pin_threads, stay there). This replaces the constructor-thread
      // value-init the std::vector arena used to get. The barrier below
      // publishes the zeroes before any cross-thread access.
      std::fill(stamped_level_.data() + lo, stamped_level_.data() + hi,
                stamp_t{0});
      std::fill(parent_scratch_.data() + lo, parent_scratch_.data() + hi,
                vid_t{0});
      queues_.init_queue(tid);
      if (!frontier_bits_.empty()) {
        const std::size_t words = frontier_bits_.size();
        const std::size_t wlo = words * static_cast<std::size_t>(tid) /
                                static_cast<std::size_t>(p_);
        const std::size_t whi = words * (static_cast<std::size_t>(tid) + 1) /
                                static_cast<std::size_t>(p_);
        for (std::size_t w = wlo; w < whi; ++w) {
          frontier_bits_[w].store(0, std::memory_order_relaxed);
        }
        if (!unvisited_words_.empty()) {
          std::fill(unvisited_words_.data() + wlo,
                    unvisited_words_.data() + whi, std::uint64_t{0});
          std::fill(discovered_words_.data() + wlo,
                    discovered_words_.data() + whi, std::uint64_t{0});
        }
      }
    }
    // No level/parent wipe: the epoch bump above already invalidated
    // every stamp. Only the optional §IV-D structures still need their
    // per-run reset.
    if (!claim_.empty()) {
      for (vid_t v = lo; v < hi; ++v) {
        claim_[v].store(-1, std::memory_order_relaxed);
      }
    }
    if (!visited_bits_.empty()) {
      const std::size_t words = visited_bits_.size();
      const std::size_t wlo = words * static_cast<std::size_t>(tid) /
                              static_cast<std::size_t>(p_);
      const std::size_t whi = words * (static_cast<std::size_t>(tid) + 1) /
                              static_cast<std::size_t>(p_);
      for (std::size_t i = wlo; i < whi; ++i) {
        visited_bits_[i].store(0, std::memory_order_relaxed);
      }
    }
    barrier_.arrive_and_wait();

    if (tid == 0) {
      stamped_level_[src] = pack_stamp(epoch_, 0);
      parent_scratch_[src] = src;
      if (!claim_.empty()) claim_[src].store(0, std::memory_order_relaxed);
      if (!visited_bits_.empty()) {
        visited_bits_[src >> 6].store(std::uint64_t{1} << (src & 63),
                                      std::memory_order_relaxed);
      }
      queues_.seed(src, graph_.out_degree(src));
      more_levels_.store(true, std::memory_order_release);
      serial_next_level_.store(opts_.serial_frontier_cutoff > 0,
                               std::memory_order_release);
      direction_.reset(graph_.num_edges());
      frontier_mean_degree_ = std::max<std::int64_t>(
          1, queues_.total_in_edges());  // frontier = {source}
      prepare_direction(1);
      if (opts_.record_level_sizes) {
        out.level_sizes.clear();
        out.level_sizes.push_back(1);
      }
      on_level_prepared();
    }
    barrier_.arrive_and_wait();

    level_t level = 0;
    while (more_levels_.load(std::memory_order_acquire)) {
      const bool bottom_up = bottom_up_level_.load(std::memory_order_acquire);
      const bool serial =
          !bottom_up && serial_next_level_.load(std::memory_order_acquire);
      const std::uint64_t level_t0 = st.trace.now();
      if (bottom_up) {
        consume_level_bottom_up(tid, level);
      } else if (serial) {
        // Hybrid shortcut: a frontier this small is cheaper to drain on
        // one thread than to dispatch; the others head to the barrier.
        if (tid == 0) drain_level_serially(tid, level);
      } else {
        consume_level(tid, level);
      }
      if (tid == 0) {
        ++st.ctr[bottom_up ? kLevelsBottomUp
                           : serial ? kLevelsSerial : kLevelsTopDown];
      }
      if (!serial || tid == 0) {
        st.trace.span(bottom_up ? kEvLevelBottomUp
                                : serial ? kEvLevelSerial : kEvLevel,
                      level_t0, level);
      }
      if (barrier_.arrive_and_wait(&st.ctr[kBarrierSpins])) {
        queues_.swap_and_prepare();
        const std::int64_t next_size = queues_.total_in();
        more_levels_.store(next_size > 0, std::memory_order_release);
        serial_next_level_.store(opts_.serial_frontier_cutoff > 0 &&
                                     next_size <
                                         opts_.serial_frontier_cutoff,
                                 std::memory_order_release);
        frontier_mean_degree_ = std::max<std::int64_t>(
            1, queues_.total_in_edges() / std::max<std::int64_t>(1, next_size));
        prepare_direction(next_size);
        if (bottom_up_level_.load(std::memory_order_relaxed) != bottom_up) {
          st.trace.instant(
              kEvDirectionFlip,
              bottom_up_level_.load(std::memory_order_relaxed) ? 1 : 0);
        }
        if (opts_.record_level_sizes && next_size > 0) {
          out.level_sizes.push_back(static_cast<std::uint64_t>(next_size));
        }
        on_level_prepared();
      }
      barrier_.arrive_and_wait(&st.ctr[kBarrierSpins]);
      ++level;
    }

    // Materialize pass: decode stamps, count the visited slice, and
    // scatter into `out` in original IDs — the single O(n) pass that
    // replaced both the old init wipe and the old final count. The last
    // level barrier already separated every traversal store from these
    // plain reads; writes are race-free because inv_perm is a bijection
    // (each original slot has exactly one writer).
    // Locals, not the ThreadState fields and members: the level/parent
    // stores are 32-bit words that could alias epoch_ and
    // max_level_in_slice, which would force a reload and store of each
    // per vertex.
    const vid_t* inv =
        graph_.inv_perm().empty() ? nullptr : graph_.inv_perm().data();
    const stamp_t* stamps = stamped_level_.data();
    const vid_t* parents = parent_scratch_.data();
    level_t* level_out = out.level.data();
    vid_t* parent_out = out.parent.data();
    const std::uint32_t epoch = epoch_;
    std::uint64_t visited = 0;
    level_t max_level = 0;
    for (vid_t v = lo; v < hi; ++v) {
      const level_t l = stamp_to_level(stamps[v], epoch);
      const vid_t orig = inv != nullptr ? inv[v] : v;
      level_out[orig] = l;
      if (l != kUnvisited) {
        ++visited;
        max_level = std::max(max_level, l);
        const vid_t par = parents[v];
        parent_out[orig] = inv != nullptr ? inv[par] : par;
      } else {
        parent_out[orig] = kInvalidVertex;
      }
    }
    st.visited_in_slice = visited;
    st.max_level_in_slice = max_level;
  });

  level_t max_level = 0;
  for (int t = 0; t < p_; ++t) {
    const ThreadState& st = state(t);
    out.vertices_visited += st.visited_in_slice;
    max_level = std::max(max_level, st.max_level_in_slice);
  }
  out.num_levels = max_level + 1;

  // One aggregation path: the team has joined, so the per-thread
  // plain-store slabs are quiescent and the sum is exact.
  telemetry::CounterSnapshot snap = counters_.aggregate();
  out.vertices_explored = snap[kVerticesExplored];
  out.edges_scanned = snap[kEdgesScanned];
  out.claim_skips = snap[kClaimSkips];
  out.steal_stats = StealStats::from(snap);
  out.serial_levels = snap[kLevelsSerial];
  out.bottom_up_levels = snap[kLevelsBottomUp];
  // A duplicate pop is indistinguishable from a first pop at the pop
  // site (that is the point of optimism); derive it here instead. The
  // arena verdict is likewise only known at run entry, before the
  // per-thread slabs were reset, so it lands here too.
  snap[kDuplicatePops] = out.duplicate_explorations();
  snap[kScratchReuses] = grew ? 0 : 1;
  // Storage-tier deltas (DESIGN.md §12): map_bytes is a level, the
  // rest are per-run deltas against the baseline captured at run entry.
  // Placement telemetry (DESIGN.md §13): one-time facts recorded on the
  // first run, when the first-touch region actually executed. The THP
  // figure is an AnonHugePages delta — promotion is asynchronous and
  // process-wide, so it is an estimate, recorded as such.
  if (first_run) {
    first_run_done_ = true;
    std::uint64_t touched =
        static_cast<std::uint64_t>(n) * (sizeof(stamp_t) + sizeof(vid_t)) +
        queues_.slab_bytes();
    touched += frontier_bits_.capacity_bytes() +
               unvisited_words_.capacity_bytes() +
               discovered_words_.capacity_bytes();
    snap[kFirstTouchBytes] = touched;
    snap[kHugePageAdvises] = placement_huge_advises_;
    snap[kNumaBindCalls] = placement_numa_binds_;
    snap[kThreadPins] = static_cast<std::uint64_t>(team_.pinned_threads());
    if (opts_.huge_pages) {
      const std::uint64_t now = mem::anon_huge_bytes();
      snap[kThpBytesPromoted] = now > thp_baseline_ ? now - thp_baseline_ : 0;
    }
  }
  const storage::StorageStats storage_after = graph_.storage_stats();
  snap[kStorageMapBytes] = storage_after.map_bytes;
  snap[kStorageAdviseCalls] =
      storage_after.advise_calls - storage_before.advise_calls;
  snap[kStorageEvictions] = storage_after.evictions - storage_before.evictions;
  snap[kStorageMajorFaults] =
      storage_after.major_faults - storage_before.major_faults;
  out.counters = snap;
  if (opts_.telemetry != nullptr) {
    state(0).trace.span(kEvRun, run_t0, source);
    opts_.telemetry->add_counters(snap);
  }
  out_ = nullptr;
}

void BFSEngineBase::prepare_direction(std::int64_t next_size) {
  if (opts_.direction_mode != DirectionMode::kHybrid) return;
  const bool was_bottom_up =
      bottom_up_level_.load(std::memory_order_relaxed);
  const bool bottom_up = direction_.next(
      next_size, static_cast<std::uint64_t>(queues_.total_in_edges()));
  bottom_up_level_.store(bottom_up, std::memory_order_release);
  // The word-scan bitmaps describe the frontier only across an
  // *unbroken* run of bottom-up levels: a top-down (or serial) level
  // discovers through discover(), which does not maintain them.
  unvisited_valid_.store(
      opts_.bottom_up_word_scan && was_bottom_up && bottom_up,
      std::memory_order_release);
  if (bottom_up) {
    // The serial shortcut never fires on a bottom-up level: the whole
    // point of going bottom-up is that the frontier is huge.
    serial_next_level_.store(false, std::memory_order_release);
  }
}

void BFSEngineBase::consume_level_bottom_up(int tid, level_t level) {
  ThreadState& st = state(tid);
  // The frontier is read from level[] below, but the in-queue entries
  // must still be consumed — clearing keeps the all-slots-0 swap
  // invariant the optimistic drains rely on — and counted (each live
  // entry retires exactly once, the per-pop convention's analog).
  st.ctr[kVerticesExplored] +=
      static_cast<std::uint64_t>(queues_.retire_in(tid, opts_.clear_slots));

  const vid_t n = graph_.num_vertices();
  const std::size_t words = frontier_bits_.size();
  const std::size_t wlo = words * static_cast<std::size_t>(tid) /
                          static_cast<std::size_t>(p_);
  const std::size_t whi = words * (static_cast<std::size_t>(tid) + 1) /
                          static_cast<std::size_t>(p_);
  const bool word_scan = opts_.bottom_up_word_scan;
  // Build the frontier bitmap. Slices are word-granular, so no two
  // threads ever touch the same word: plain relaxed stores, no RMW.
  if (word_scan && unvisited_valid_.load(std::memory_order_acquire)) {
    // Fast path on an unbroken run of bottom-up levels: last level's
    // scan already recorded exactly who it discovered, so the frontier
    // bitmap is a straight word copy — zero stamped_level_ probes.
    for (std::size_t w = wlo; w < whi; ++w) {
      frontier_bits_[w].store(discovered_words_[w],
                              std::memory_order_relaxed);
    }
  } else {
    const stamp_t want = pack_stamp(epoch_, level);
    for (std::size_t w = wlo; w < whi; ++w) {
      const vid_t base = static_cast<vid_t>(w * 64);
      const vid_t limit = std::min<vid_t>(n, base + 64);
      std::uint64_t fbits = 0;
      std::uint64_t ubits = 0;
      for (vid_t v = base; v < limit; ++v) {
        // One packed load answers both questions: frontier membership
        // is a whole-word compare, unvisited is an epoch mismatch.
        const stamp_t s = std::atomic_ref<stamp_t>(stamped_level_[v])
                              .load(std::memory_order_relaxed);
        if (s == want) {
          fbits |= std::uint64_t{1} << (v - base);
        } else if (stamp_epoch(s) != epoch_) {
          ubits |= std::uint64_t{1} << (v - base);
        }
      }
      frontier_bits_[w].store(fbits, std::memory_order_relaxed);
      // unvisited_words_ is plain storage: word w has exactly one
      // owner (this thread) in the build pass AND the scan pass, so
      // no other thread ever touches it.
      if (word_scan) unvisited_words_[w] = ubits;
    }
  }
  // publish every thread's bitmap words
  barrier_.arrive_and_wait(&st.ctr[kBarrierSpins]);

  // Owner-computes scan: this thread is the only writer of the stamp,
  // parent_scratch_[v], and its own out-queue for every v in its slice,
  // so the races the top-down engines tolerate simply do not exist here.
  std::uint64_t edges = 0;
  std::uint64_t words_skipped = 0;
  std::uint64_t prefetches = 0;
  const auto dist = static_cast<std::size_t>(
      opts_.prefetch_distance > 0 ? opts_.prefetch_distance : 0);
  if (word_scan) {
    // Word-scan: whole words of finished/unreached vertices cost one
    // load + compare instead of 64 stamp probes; survivors iterate
    // set bits only. Discoveries are recorded into discovered_words_
    // (next level's frontier) and cleared from unvisited_words_.
    for (std::size_t w = wlo; w < whi; ++w) {
      const std::uint64_t ubits = unvisited_words_[w];
      if (ubits == 0) {
        ++words_skipped;
        discovered_words_[w] = 0;
        continue;
      }
      std::uint64_t dbits = 0;
      for (std::uint64_t rest = ubits; rest != 0; rest &= rest - 1) {
        const vid_t v = static_cast<vid_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(rest)));
        const auto nbrs = transpose_->out_neighbors(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          if (dist > 0 && j + dist < nbrs.size()) {
            __builtin_prefetch(&frontier_bits_[nbrs[j + dist] >> 6]);
            ++prefetches;
          }
          const vid_t u = nbrs[j];
          ++edges;
          if ((frontier_bits_[u >> 6].load(std::memory_order_relaxed) >>
               (u & 63)) &
              1) {
            std::atomic_ref<stamp_t>(stamped_level_[v])
                .store(pack_stamp(epoch_, level + 1),
                       std::memory_order_relaxed);
            std::atomic_ref<vid_t>(parent_scratch_[v])
                .store(u, std::memory_order_relaxed);
            if (!claim_.empty()) {
              claim_[v].store(tid, std::memory_order_relaxed);
            }
            // Refill Qout through the normal path so a switch back to
            // top-down (and work-stealing) resumes seamlessly. No
            // visited-bitmap update needed: discover() checks the
            // stamp before the bitmap, so v can never be re-discovered.
            queues_.push_out(tid, v, graph_.out_degree(v));
            dbits |= std::uint64_t{1} << (v & 63);
            break;  // first frontier in-neighbor wins; rest redundant
          }
        }
      }
      discovered_words_[w] = dbits;
      unvisited_words_[w] = ubits & ~dbits;
    }
  } else {
    // Ablation baseline: probe every vertex's stamp directly.
    for (std::size_t w = wlo; w < whi; ++w) {
      const vid_t base = static_cast<vid_t>(w * 64);
      const vid_t limit = std::min<vid_t>(n, base + 64);
      for (vid_t v = base; v < limit; ++v) {
        if (stamp_epoch(std::atomic_ref<stamp_t>(stamped_level_[v])
                            .load(std::memory_order_relaxed)) == epoch_) {
          continue;
        }
        const auto nbrs = transpose_->out_neighbors(v);
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          if (dist > 0 && j + dist < nbrs.size()) {
            __builtin_prefetch(&frontier_bits_[nbrs[j + dist] >> 6]);
            ++prefetches;
          }
          const vid_t u = nbrs[j];
          ++edges;
          if ((frontier_bits_[u >> 6].load(std::memory_order_relaxed) >>
               (u & 63)) &
              1) {
            std::atomic_ref<stamp_t>(stamped_level_[v])
                .store(pack_stamp(epoch_, level + 1),
                       std::memory_order_relaxed);
            std::atomic_ref<vid_t>(parent_scratch_[v])
                .store(u, std::memory_order_relaxed);
            if (!claim_.empty()) {
              claim_[v].store(tid, std::memory_order_relaxed);
            }
            queues_.push_out(tid, v, graph_.out_degree(v));
            break;
          }
        }
      }
    }
  }
  st.ctr[kEdgesScanned] += edges;
  st.ctr[kBottomUpWordsSkipped] += words_skipped;
  if (prefetches > 0) st.ctr[kPrefetchIssued] += prefetches;
}

void BFSEngineBase::drain_level_serially(int tid, level_t level) {
  Tally tally;
  for (int q = 0; q < p_; ++q) {
    const std::int64_t rear = queues_.in_rear(q);
    for (std::int64_t i = 0; i < rear; ++i) {
      // An empty slot is a duplicate from a prior level, not a twin's
      // mark, so the drain goes on past it.
      process_slot(tid, q, i, level, tally, /*defer_hotspots=*/false);
    }
  }
  tally.add_to(state(tid).ctr);
}

void BFSEngineBase::explore_hotspots(int tid, level_t level) {
  std::uint64_t* ctr = state(tid).ctr;
  // Phase boundary: every thread has finished phase 1, so the
  // per-thread hotspot vectors are stable; one thread gathers them.
  if (barrier_.arrive_and_wait(&ctr[kBarrierSpins])) {
    level_hotspots_.clear();
    for (int t = 0; t < p_; ++t) {
      ThreadState& st = state(t);
      level_hotspots_.insert(level_hotspots_.end(), st.hotspots.begin(),
                             st.hotspots.end());
      st.hotspots.clear();
    }
    if (opts_.phase2 == Phase2Mode::kStealing) {
      hotspot_front_.assign(level_hotspots_.size(), 0);
      hotspot_rear_.resize(level_hotspots_.size());
      for (std::size_t i = 0; i < level_hotspots_.size(); ++i) {
        hotspot_rear_[i] = graph_.out_degree(level_hotspots_[i]);
      }
    }
  }
  barrier_.arrive_and_wait(&ctr[kBarrierSpins]);
  if (level_hotspots_.empty()) return;

  if (opts_.phase2 == Phase2Mode::kChunked) {
    // Paper phase 2: adjacency list of each hotspot is cut into p
    // chunks; thread i explores chunk i. No stealing, no shared state.
    Tally tally;
    for (const vid_t h : level_hotspots_) {
      const auto deg = static_cast<std::size_t>(graph_.out_degree(h));
      const auto t = static_cast<std::size_t>(tid);
      const auto pp = static_cast<std::size_t>(p_);
      const std::size_t chunk_lo = deg * t / pp;
      const std::size_t chunk_hi = deg * (t + 1) / pp;
      // vertices_explored was already counted when the popping thread
      // deferred the hotspot (see process_slot).
      visit_neighbor_range(tid, h, level + 1, chunk_lo, chunk_hi, tally);
    }
    tally.add_to(ctr);
    return;
  }

  // kStealing variant: hotspots are dealt round-robin; a thread that
  // finishes its share steals half of the remaining adjacency range of
  // a hotspot another thread is draining. Edge ranges cannot use the
  // 0-sentinel (the adjacency array is read-only), so owners re-read
  // their slot's (thief-writable) rear each step; because ranges live
  // per hotspot slot, races cost duplicate edge scans only.
  auto& draining = *draining_[static_cast<std::size_t>(tid)];
  for (std::size_t i = static_cast<std::size_t>(tid);
       i < level_hotspots_.size(); i += static_cast<std::size_t>(p_)) {
    draining.store(static_cast<vid_t>(i), std::memory_order_relaxed);
    drain_adjacency_range(tid, i, level);
  }
  draining.store(kInvalidVertex, std::memory_order_relaxed);
  while (steal_adjacency_range(tid, level)) {
  }
}

void BFSEngineBase::drain_adjacency_range(int tid, std::size_t slot,
                                          level_t level) {
  const vid_t h = level_hotspots_[slot];
  std::atomic_ref<std::int64_t> front(hotspot_front_[slot]);
  const std::atomic_ref<std::int64_t> rear(hotspot_rear_[slot]);
  Tally tally;
  for (std::int64_t e = front.load(std::memory_order_relaxed);
       e < rear.load(std::memory_order_relaxed); ++e) {
    visit_neighbor_range(tid, h, level + 1, static_cast<std::size_t>(e),
                         static_cast<std::size_t>(e) + 1, tally);
    front.store(e + 1, std::memory_order_relaxed);
  }
  tally.add_to(state(tid).ctr);
}

bool BFSEngineBase::steal_adjacency_range(int tid, level_t level) {
  ThreadState& st = state(tid);
  const int budget = max_steal_attempts(p_);
  for (int attempt = 0; attempt < budget; ++attempt) {
    const int victim = pick_victim(tid, attempt * 2 < budget);
    const vid_t slot =
        victim == tid ? kInvalidVertex
                      : draining_[static_cast<std::size_t>(victim)]->load(
                            std::memory_order_relaxed);
    if (slot == kInvalidVertex) {
      ++st.ctr[kStealFailVictimIdle];
      continue;
    }
    // The victim may have moved on since it published `slot`; stealing
    // from that slot is still safe (see hotspot_rear_).
    const std::int64_t f =
        std::atomic_ref<std::int64_t>(hotspot_front_[slot])
            .load(std::memory_order_relaxed);
    std::atomic_ref<std::int64_t> rear(hotspot_rear_[slot]);
    const std::int64_t r = rear.load(std::memory_order_relaxed);
    if (f >= r) {
      ++st.ctr[kStealFailVictimIdle];
      continue;
    }
    if (r - f < 2) {
      ++st.ctr[kStealFailSegmentTooSmall];
      continue;
    }
    const std::int64_t mid = f + (r - f) / 2;
    rear.store(mid, std::memory_order_relaxed);
    ++st.ctr[kStealSuccess];
    Tally tally;
    visit_neighbor_range(tid, level_hotspots_[slot], level + 1,
                         static_cast<std::size_t>(mid),
                         static_cast<std::size_t>(r), tally);
    tally.add_to(st.ctr);
    return true;
  }
  return false;
}

}  // namespace optibfs
