#include "core/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace optibfs {

using enum telemetry::Counter;
using enum telemetry::EventName;

MsBfsSession::MsBfsSession(const CsrGraph& graph, const BFSOptions& options)
    : MsBfsSession(graph, options,
                   TeamHandle(options.num_threads, options.pin_threads)) {}

MsBfsSession::MsBfsSession(const CsrGraph& graph, const BFSOptions& options,
                           ThreadTeam& team)
    : MsBfsSession(graph, options, TeamHandle(team)) {}

MsBfsSession::MsBfsSession(const CsrGraph& graph, const BFSOptions& options,
                           TeamHandle team)
    : graph_(graph),
      opts_(options),
      hybrid_(options.direction_mode == DirectionMode::kHybrid &&
              options.alpha > 0),
      transpose_(hybrid_ ? &graph.transpose() : nullptr),
      p_(team.width()),
      queues_(p_, graph.num_vertices()),
      barrier_(p_),
      direction_(options.alpha, options.beta, graph.num_vertices()),
      explored_(static_cast<std::size_t>(p_)),
      counters_(p_),
      traces_(static_cast<std::size_t>(p_)),
      team_(std::move(team)) {
  const vid_t n = graph_.num_vertices();
  seen_.grow(n, opts_.huge_pages);
  visit_.grow(n, opts_.huge_pages);
  visit_next_.grow(n, opts_.huge_pages);
  if (n == 0) return;
  // First touch: each member zeroes its owned slice, so the mask pages
  // fault near the workers that hammer them (memset into atomic storage:
  // the clearing trick's pragmatism class, DESIGN.md §13).
  team_.run([this](int tid) {
    const auto [lo, hi] = owned(tid);
    const std::size_t bytes =
        static_cast<std::size_t>(hi - lo) * sizeof(std::atomic<std::uint64_t>);
    std::memset(static_cast<void*>(seen_.data() + lo), 0, bytes);
    std::memset(static_cast<void*>(visit_.data() + lo), 0, bytes);
    std::memset(static_cast<void*>(visit_next_.data() + lo), 0, bytes);
  });
}

std::pair<vid_t, vid_t> MsBfsSession::owned(int tid) const {
  const auto n = static_cast<std::uint64_t>(graph_.num_vertices());
  const auto t = static_cast<std::uint64_t>(tid);
  const auto p = static_cast<std::uint64_t>(p_);
  return {static_cast<vid_t>(n * t / p), static_cast<vid_t>(n * (t + 1) / p)};
}

void MsBfsSession::run(const std::vector<vid_t>& sources, MsBfsResult& out) {
  const vid_t n = graph_.num_vertices();
  if (sources.empty() ||
      sources.size() > static_cast<std::size_t>(kMaxBatch)) {
    throw std::invalid_argument(
        "MsBfsSession: batch must hold 1..64 sources");
  }
  for (const vid_t s : sources) {
    if (s >= n) {
      throw std::out_of_range("MsBfsSession: source out of range");
    }
  }

  if (opts_.telemetry != nullptr && !trace_slots_acquired_) {
    wave_trace_.attach(*opts_.telemetry, "msbfs.wave");
    for (int t = 0; t < p_; ++t) {
      traces_[static_cast<std::size_t>(t)].attach(
          *opts_.telemetry, "msbfs.t" + std::to_string(t));
    }
    trace_slots_acquired_ = true;
  }
  const std::uint64_t wave_t0 = wave_trace_.now();
  counters_.reset();  // single-threaded: the team is not running yet

  // Arena accounting: a wave whose buffers (including the caller's
  // reused `out`) were already sized allocates nothing below — assign()
  // on a sufficient-capacity vector only overwrites.
  const std::size_t cells = sources.size() * static_cast<std::size_t>(n);
  bool grew = out.distance.capacity() < cells ||
              out.vertices_explored.capacity() < sources.size();
  const std::size_t scratch =
      std::min(static_cast<std::size_t>(p_), sources.size()) * n;
  if (graph_.is_reordered() && remap_scratch_.size() < scratch) {
    remap_scratch_.resize(scratch);
    grew = true;
  }
  if (grew) {
    ++arena_.allocations;
  } else {
    ++arena_.reuses;
  }

  out.num_vertices = n;
  out.num_sources = static_cast<int>(sources.size());
  out.distance.assign(cells, kUnvisited);
  out.vertices_explored.assign(sources.size(), 0);
  for (auto& counts : explored_) {
    std::fill(std::begin(counts->per_source), std::end(counts->per_source),
              std::uint64_t{0});
  }

  // The previous wave left the masks all-zero (header invariant) and —
  // with the clearing trick on — every queue slot zeroed by its reader.
  if (!opts_.clear_slots) {
    // Ablation mode forfeits the all-slots-0 reuse invariant; scrub.
    queues_.hard_reset();
  }
  global_queue_.store(0, std::memory_order_relaxed);
  more_.store(true, std::memory_order_relaxed);

  // Seed all sources (each distinct vertex enqueued once; its mask
  // carries every source bit that starts there). Sources arrive in
  // original IDs; the wave runs internal, and its tail remaps the rows.
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const vid_t v = graph_.to_internal(sources[s]);
    const std::uint64_t bit = std::uint64_t{1} << s;
    seen_[v].fetch_or(bit, std::memory_order_relaxed);
    visit_[v].fetch_or(bit, std::memory_order_relaxed);
    out.distance[s * n + v] = 0;
  }
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const vid_t v = graph_.to_internal(sources[s]);
    bool already = false;
    for (std::size_t prior = 0; prior < s; ++prior) {
      if (sources[prior] == sources[s]) already = true;
    }
    if (!already) queues_.push_out(0, v, graph_.out_degree(v));
  }
  queues_.swap_and_prepare();

  // Direction bookkeeping starts top-down from the seed frontier.
  batch_mask_ = sources.size() == 64
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << sources.size()) - 1;
  bottom_up_level_.store(false, std::memory_order_relaxed);
  direction_.reset(graph_.num_edges(), queues_.total_in(),
                   static_cast<std::uint64_t>(queues_.total_in_edges()));
  bottom_up_levels_count_ = 0;

  team_.run([&](int tid) { run_wave(tid, out); });

  out.bottom_up_levels = bottom_up_levels_count_;
  for (const auto& counts : explored_) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      out.vertices_explored[s] += counts->per_source[s];
    }
  }

  // Team joined: the plain-store slabs are quiescent.
  telemetry::CounterSnapshot snap = counters_.aggregate();
  snap[kWaves] = 1;
  snap[kWaveSources] = static_cast<std::uint64_t>(sources.size());
  snap[kScratchReuses] = grew ? 0 : 1;
  out.counters = snap;
  if (opts_.telemetry != nullptr) {
    wave_trace_.span(kEvWave, wave_t0,
                     static_cast<std::uint64_t>(sources.size()));
    opts_.telemetry->add_counters(snap);
  }
}

void MsBfsSession::run_wave(int tid, MsBfsResult& out) {
  const vid_t n = graph_.num_vertices();
  std::uint64_t* ctr = counters_.slab(tid);
  telemetry::ThreadTrace& trace = traces_[static_cast<std::size_t>(tid)];
  level_t depth = 0;  // lockstep via the two barriers per level
  while (more_.load(std::memory_order_acquire)) {
    if (bottom_up_level_.load(std::memory_order_acquire)) {
      if (tid == 0) ++ctr[kLevelsBottomUp];
      const std::uint64_t level_t0 = trace.now();
      run_level_bottom_up(tid, depth, out);
      trace.span(kEvLevelBottomUp, level_t0, depth);
      if (barrier_.arrive_and_wait(&ctr[kBarrierSpins])) {
        queues_.swap_and_prepare();
        global_queue_.store(0, std::memory_order_relaxed);
        // visit_ was zeroed (and counted) by the bottom-up step's
        // retire phase, so the swap hands back an all-zero visit_next_
        // exactly like a top-down level does.
        std::swap(visit_, visit_next_);
        const std::int64_t next_size = queues_.total_in();
        more_.store(next_size > 0, std::memory_order_release);
        prepare_direction(next_size);
        if (!bottom_up_level_.load(std::memory_order_relaxed)) {
          trace.instant(kEvDirectionFlip, 0);
        }
      }
      barrier_.arrive_and_wait(&ctr[kBarrierSpins]);
      ++depth;
      continue;
    }
    if (tid == 0) ++ctr[kLevelsTopDown];
    const std::uint64_t level_t0 = trace.now();
    // Optimistic centralized drain (BFS_CL discipline).
    for (;;) {
      int k = global_queue_.load(std::memory_order_relaxed);
      if (k < 0) k = 0;
      std::int64_t front = 0, rear = 0;
      while (k < p_) {
        front = queues_.in_front(k).load(std::memory_order_relaxed);
        rear = queues_.in_rear(k);
        if (front < rear) break;
        ++k;
      }
      if (k >= p_) break;
      const std::int64_t remaining = rear - front;
      const std::int64_t len =
          opts_.segment_size > 0
              ? std::min<std::int64_t>(opts_.segment_size, remaining)
              : std::min<std::int64_t>(
                    std::max<std::int64_t>(remaining / (4 * p_), 1),
                    remaining);
      global_queue_.store(k, std::memory_order_relaxed);
      queues_.in_front(k).store(front + len, std::memory_order_relaxed);
      ++ctr[kSegmentsClaimed];
      for (std::int64_t i = front; i < front + len; ++i) {
        const vid_t v = queues_.consume_in(k, i, opts_.clear_slots);
        if (v == kInvalidVertex) {
          ++ctr[kZeroSlotAborts];
          break;
        }
        // Claim this vertex's current-level mask; a duplicate pop of
        // v (optimistic overlap) reads 0 here and does nothing. Unlike
        // the single-source engines, MS-BFS observes a duplicate pop
        // directly: the mask exchange tells it apart from a first pop.
        const std::uint64_t mask =
            visit_[v].exchange(0, std::memory_order_relaxed);
        if (mask == 0) {
          ++ctr[kDuplicatePops];
          continue;
        }
        ++ctr[kVerticesExplored];
        const auto nbrs = graph_.out_neighbors(v);
        ctr[kEdgesScanned] += nbrs.size();
        // Per-pop convention: this pop counts once for every source
        // whose bit it claimed (an empty-mask pop counts for nobody).
        for (std::uint64_t bits = mask; bits != 0;) {
          const int s = std::countr_zero(bits);
          bits &= bits - 1;
          ++explored_[static_cast<std::size_t>(tid)]->per_source[s];
        }
        const auto dist = static_cast<std::size_t>(
            opts_.prefetch_distance > 0 ? opts_.prefetch_distance : 0);
        if (dist > 0 && nbrs.size() > dist) {
          ctr[kPrefetchIssued] += nbrs.size() - dist;
        }
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          // Locality layer: the seen_ mask probe is the wave's random
          // access; get the one `dist` ahead in flight (pure hint).
          if (dist > 0 && j + dist < nbrs.size()) {
            __builtin_prefetch(&seen_[nbrs[j + dist]]);
          }
          const vid_t w = nbrs[j];
          std::uint64_t fresh =
              mask & ~seen_[w].load(std::memory_order_relaxed);
          if (fresh == 0) continue;
          // fetch_or arbitrates which thread owns each new bit; the
          // owner records the distance (single writer per (s, w)).
          const std::uint64_t before =
              seen_[w].fetch_or(fresh, std::memory_order_relaxed);
          fresh &= ~before;
          if (fresh == 0) continue;
          for (std::uint64_t bits = fresh; bits != 0;) {
            const int s = std::countr_zero(bits);
            bits &= bits - 1;
            out.distance[static_cast<std::size_t>(s) * n + w] = depth + 1;
          }
          const std::uint64_t prior_next =
              visit_next_[w].fetch_or(fresh, std::memory_order_relaxed);
          if (prior_next == 0) {
            queues_.push_out(tid, w, graph_.out_degree(w));
          }
        }
      }
    }
    trace.span(kEvLevel, level_t0, depth);
    if (barrier_.arrive_and_wait(&ctr[kBarrierSpins])) {
      // Single-threaded window: the other workers are parked at the
      // second barrier below and touch none of this state.
      queues_.swap_and_prepare();
      global_queue_.store(0, std::memory_order_relaxed);
      // visit <- visit_next by swapping roles. visit is all-zero here
      // (every processed vertex exchanged its mask away), so the swap
      // leaves visit_next all-zero for the next level.
      std::swap(visit_, visit_next_);
      const std::int64_t next_size = queues_.total_in();
      more_.store(next_size > 0, std::memory_order_release);
      const bool was_bottom_up =
          bottom_up_level_.load(std::memory_order_relaxed);
      prepare_direction(next_size);
      if (bottom_up_level_.load(std::memory_order_relaxed) !=
          was_bottom_up) {
        trace.instant(kEvDirectionFlip, 1);
      }
    }
    barrier_.arrive_and_wait(&ctr[kBarrierSpins]);
    ++depth;
  }
  // All members passed the final barrier, so masks and rows are final:
  // clear the owned slice of seen_ for the next wave and, on a
  // reordered graph, scatter rows tid, tid + p, ... to original IDs
  // (bfs_result.hpp convention). The team join publishes both.
  const auto [lo, hi] = owned(tid);
  for (vid_t v = lo; v < hi; ++v) seen_[v].store(0, std::memory_order_relaxed);
  if (!graph_.is_reordered() || tid >= out.num_sources) return;
  const vid_t* inv = graph_.inv_perm().data();
  level_t* scratch = remap_scratch_.data() + static_cast<std::size_t>(tid) * n;
  for (int s = tid; s < out.num_sources; s += p_) {
    level_t* row = out.distance.data() + static_cast<std::size_t>(s) * n;
    std::copy(row, row + n, scratch);
    for (vid_t v = 0; v < n; ++v) row[inv[v]] = scratch[v];
  }
}

void MsBfsSession::prepare_direction(std::int64_t next_size) {
  if (!hybrid_) return;
  const bool bottom_up = direction_.next(
      next_size, static_cast<std::uint64_t>(queues_.total_in_edges()));
  bottom_up_level_.store(bottom_up, std::memory_order_release);
  if (bottom_up) ++bottom_up_levels_count_;
}

void MsBfsSession::run_level_bottom_up(int tid, level_t depth,
                                       MsBfsResult& out) {
  const vid_t n = graph_.num_vertices();
  std::uint64_t* ctr = counters_.slab(tid);
  // The queued frontier entries are not traversed (the frontier is read
  // from visit_ directly) but must still be consumed so the queue pool
  // swaps back with the all-slots-0 invariant intact. The pop count is
  // ignored: the per-pop convention's bottom-up analog is the mask
  // retirement below, which attributes each frontier (vertex, source)
  // pair exactly once.
  (void)queues_.retire_in(tid, opts_.clear_slots);

  const auto [lo, hi] = owned(tid);

  // Owner-computes pull: this thread is the only writer of seen_[v],
  // visit_next_[v], the distance entries, and its own out-queue for
  // every v in its slice — no RMW, no optimistic races, plain relaxed
  // accesses (the surrounding barriers order everything).
  for (vid_t v = lo; v < hi; ++v) {
    const std::uint64_t missing =
        batch_mask_ & ~seen_[v].load(std::memory_order_relaxed);
    if (missing == 0) continue;
    std::uint64_t found = 0;
    std::uint64_t edges = 0;
    const auto nbrs = transpose_->out_neighbors(v);
    const auto dist = static_cast<std::size_t>(
        opts_.prefetch_distance > 0 ? opts_.prefetch_distance : 0);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (dist > 0 && j + dist < nbrs.size()) {
        __builtin_prefetch(&visit_[nbrs[j + dist]]);
        ++ctr[kPrefetchIssued];
      }
      found |= visit_[nbrs[j]].load(std::memory_order_relaxed);
      ++edges;
      // Early exit once every missing source has reached v.
      if ((found & missing) == missing) break;
    }
    ctr[kEdgesScanned] += edges;
    const std::uint64_t fresh = found & missing;
    if (fresh == 0) continue;
    seen_[v].store(seen_[v].load(std::memory_order_relaxed) | fresh,
                   std::memory_order_relaxed);
    for (std::uint64_t bits = fresh; bits != 0;) {
      const int s = std::countr_zero(bits);
      bits &= bits - 1;
      out.distance[static_cast<std::size_t>(s) * n + v] = depth + 1;
    }
    visit_next_[v].store(fresh, std::memory_order_relaxed);
    queues_.push_out(tid, v, graph_.out_degree(v));
  }
  barrier_.arrive_and_wait(&ctr[kBarrierSpins]);  // done reading visit_

  // Retire (count + zero) this slice of the just-consumed frontier so
  // the level-end swap keeps the all-zero invariant. Counting here is
  // the per-pop convention's bottom-up analog: each frontier mask bit
  // retires exactly once, on the thread that owns the vertex's slice.
  for (vid_t v = lo; v < hi; ++v) {
    std::uint64_t mask = visit_[v].load(std::memory_order_relaxed);
    if (mask == 0) continue;
    visit_[v].store(0, std::memory_order_relaxed);
    ++ctr[kVerticesExplored];
    for (std::uint64_t bits = mask; bits != 0;) {
      const int s = std::countr_zero(bits);
      bits &= bits - 1;
      ++explored_[static_cast<std::size_t>(tid)]->per_source[s];
    }
  }
}

MsBfsResult multi_source_bfs(const CsrGraph& graph,
                             const std::vector<vid_t>& sources,
                             const BFSOptions& options) {
  MsBfsSession session(graph, options);
  return session.run(sources);
}

}  // namespace optibfs
