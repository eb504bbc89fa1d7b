#include "core/msbfs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace optibfs {

using enum telemetry::Counter;
using enum telemetry::EventName;

namespace {

/// Planes a distance of `depth` needs: its bit width.
int planes_for(level_t depth) {
  return static_cast<int>(std::bit_width(static_cast<std::uint32_t>(depth)));
}

/// kSpread[b]: byte i is bit i of b — eight source bits as eight bytes.
constexpr std::array<std::uint64_t, 256> kSpread = [] {
  std::array<std::uint64_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    for (unsigned i = 0; i < 8; ++i) {
      table[b] |= static_cast<std::uint64_t>((b >> i) & 1U) << (8 * i);
    }
  }
  return table;
}();

/// Transposes an 8x8 byte matrix held one row per word (byte j of x[i]
/// is element (i, j)) in three rounds of delta swaps.
void transpose_bytes(std::uint64_t (&x)[8]) {
  const auto swap = [&x](int i, int j, int shift, std::uint64_t mask) {
    const std::uint64_t t = ((x[i] >> shift) ^ x[j]) & mask;
    x[i] ^= t << shift;
    x[j] ^= t;
  };
  for (int i = 0; i < 4; ++i) swap(i, i + 4, 32, 0x00000000FFFFFFFFULL);
  for (const int i : {0, 1, 4, 5}) swap(i, i + 2, 16, 0x0000FFFF0000FFFFULL);
  for (const int i : {0, 2, 4, 6}) swap(i, i + 1, 8, 0x00FF00FF00FF00FFULL);
}

}  // namespace

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
      tallies_(static_cast<std::size_t>(p_)),
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

  // Rows: the output pass writes every cell, so a row that already has
  // n entries is reused as is; a fresh one (or one the caller moved
  // out) is allocated here, on the caller's thread.
  const std::size_t ns = sources.size();
  bool grew = out.distance.capacity() < ns ||
              out.vertices_explored.capacity() < ns;
  out.distance.resize(ns);
  for (std::vector<level_t>& row : out.distance) {
    grew |= row.capacity() < n;
    row.resize(n);
  }
  out.num_vertices = n;
  out.num_sources = static_cast<int>(ns);
  const int planes_before = num_planes_;

  // The previous wave left the masks and planes all-zero (header
  // invariant) and — with the clearing trick on — every queue slot
  // zeroed by its reader.
  if (!opts_.clear_slots) {
    // Ablation mode forfeits the all-slots-0 reuse invariant; scrub.
    queues_.hard_reset();
  }
  global_queue_.store(0, std::memory_order_relaxed);
  more_.store(true, std::memory_order_relaxed);

  // Seed all sources: each distinct vertex is enqueued once, and its
  // mask carries every source bit that starts there. Depth 0 sets no
  // plane bit. Sources arrive in original IDs; the wave runs internal,
  // and its output pass writes the rows in original IDs.
  live_ = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    const vid_t v = graph_.to_internal(sources[s]);
    const std::uint64_t bit = std::uint64_t{1} << s;
    seen_[v].store(seen_[v].load(std::memory_order_relaxed) | bit,
                   std::memory_order_relaxed);
    const std::uint64_t prior = visit_[v].load(std::memory_order_relaxed);
    visit_[v].store(prior | bit, std::memory_order_relaxed);
    if (prior == 0) queues_.push_out(0, v, graph_.out_degree(v));
    live_ |= bit;
  }
  queues_.swap_and_prepare();

  // Direction bookkeeping starts top-down from the seed frontier.
  bottom_up_level_.store(false, std::memory_order_relaxed);
  direction_.reset(graph_.num_edges(), queues_.total_in(),
                   static_cast<std::uint64_t>(queues_.total_in_edges()));
  bottom_up_levels_count_ = 0;

  team_.run([&](int tid) { run_wave(tid, out); });

  grew |= num_planes_ > planes_before;
  ++(grew ? arena_.allocations : arena_.reuses);
  if (wave_error_) {
    // Every member scrubbed its slices; the queues still hold the
    // abandoned frontier.
    queues_.hard_reset();
    std::rethrow_exception(std::exchange(wave_error_, nullptr));
  }

  out.bottom_up_levels = bottom_up_levels_count_;
  out.vertices_explored.assign(ns, 0);
  for (const auto& tally : tallies_) {
    for (std::size_t s = 0; s < ns; ++s) {
      out.vertices_explored[s] += tally->reached[s];
    }
  }

  // Team joined: the plain-store slabs are quiescent.
  telemetry::CounterSnapshot snap = counters_.aggregate();
  snap[kWaves] = 1;
  snap[kWaveSources] = static_cast<std::uint64_t>(ns);
  snap[kScratchReuses] = grew ? 0 : 1;
  out.counters = snap;
  if (opts_.telemetry != nullptr) {
    wave_trace_.span(kEvWave, wave_t0, static_cast<std::uint64_t>(ns));
    opts_.telemetry->add_counters(snap);
  }
}

MsBfsSession::LevelPlanes MsBfsSession::level_planes(level_t depth) {
  LevelPlanes planes;
  for (auto bits = static_cast<std::uint32_t>(depth); bits != 0;
       bits &= bits - 1) {
    planes.plane[planes.count++] = planes_[std::countr_zero(bits)].data();
  }
  return planes;
}

void MsBfsSession::run_wave(int tid, MsBfsResult& out) {
  std::uint64_t* ctr = counters_.slab(tid);
  telemetry::ThreadTrace& trace = traces_[static_cast<std::size_t>(tid)];
  level_t depth = 0;  // lockstep via the two barriers per level
  while (more_.load(std::memory_order_acquire)) {
    const bool bottom_up = bottom_up_level_.load(std::memory_order_acquire);
    if (tid == 0) ++ctr[bottom_up ? kLevelsBottomUp : kLevelsTopDown];
    const std::uint64_t level_t0 = trace.now();
    std::uint64_t& found = tallies_[static_cast<std::size_t>(tid)]->found;
    if (bottom_up) {
      found = run_level_bottom_up(tid, depth);
      trace.span(kEvLevelBottomUp, level_t0, depth);
    } else {
      found = run_level_top_down(tid, depth);
      trace.span(kEvLevel, level_t0, depth);
    }
    if (barrier_.arrive_and_wait(&ctr[kBarrierSpins])) {
      // Single-threaded window: the other workers are parked at the
      // second barrier below and touch none of this state.
      end_level(depth);
      if (bottom_up_level_.load(std::memory_order_relaxed) != bottom_up) {
        trace.instant(kEvDirectionFlip, bottom_up ? 0 : 1);
      }
    }
    barrier_.arrive_and_wait(&ctr[kBarrierSpins]);
    ++depth;
  }
  // All members passed the final barrier, so masks and planes are
  // final (or, after a failed growth, abandoned). The team join
  // publishes the rows, the tallies and the zeroed scratch.
  if (wave_error_) {
    scrub(tid);
  } else {
    write_rows(tid, planes_for(depth - 1), out);
  }
}

void MsBfsSession::end_level(level_t depth) {
  queues_.swap_and_prepare();
  global_queue_.store(0, std::memory_order_relaxed);
  // visit <- visit_next by swapping roles. visit is all-zero here
  // (every frontier mask was exchanged away by its pop or retired by
  // its owner), so the swap leaves visit_next all-zero for the next
  // level.
  std::swap(visit_, visit_next_);
  live_ = 0;
  for (const auto& tally : tallies_) live_ |= tally->found;
  const std::int64_t next_size = queues_.total_in();
  bool more = next_size > 0;
  // The next level records depth + 1; its highest set bit may need a
  // plane no earlier wave on this session reached.
  if (more && planes_for(depth + 1) > num_planes_) {
    try {
      mem::PlacedBuffer<std::uint64_t>& plane = planes_[num_planes_];
      plane.grow(graph_.num_vertices(), opts_.huge_pages);
      std::memset(plane.data(), 0,
                  graph_.num_vertices() * sizeof(std::uint64_t));
      ++num_planes_;
    } catch (...) {
      wave_error_ = std::current_exception();
      more = false;
    }
  }
  more_.store(more, std::memory_order_release);
  prepare_direction(next_size);
}

std::uint64_t MsBfsSession::run_level_top_down(int tid, level_t depth) {
  std::uint64_t* ctr = counters_.slab(tid);
  const LevelPlanes planes = level_planes(depth);
  const auto dist = static_cast<std::size_t>(
      opts_.prefetch_distance > 0 ? opts_.prefetch_distance : 0);
  std::uint64_t found = 0;
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
      // The exchange made this pop v's only consumer this level: it
      // records depth for every source in the mask, once.
      planes.record(v, mask);
      const auto nbrs = graph_.out_neighbors(v);
      ctr[kEdgesScanned] += nbrs.size();
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
        std::uint64_t fresh = mask & ~seen_[w].load(std::memory_order_relaxed);
        if (fresh == 0) continue;
        // fetch_or arbitrates which thread owns each new bit; the
        // owner hands it to w's next-level mask.
        const std::uint64_t before =
            seen_[w].fetch_or(fresh, std::memory_order_relaxed);
        fresh &= ~before;
        if (fresh == 0) continue;
        found |= fresh;
        const std::uint64_t prior_next =
            visit_next_[w].fetch_or(fresh, std::memory_order_relaxed);
        if (prior_next == 0) {
          queues_.push_out(tid, w, graph_.out_degree(w));
        }
      }
    }
  }
  return found;
}

void MsBfsSession::prepare_direction(std::int64_t next_size) {
  if (!hybrid_) return;
  const bool bottom_up = direction_.next(
      next_size, static_cast<std::uint64_t>(queues_.total_in_edges()));
  bottom_up_level_.store(bottom_up, std::memory_order_release);
  if (bottom_up) ++bottom_up_levels_count_;
}

std::uint64_t MsBfsSession::run_level_bottom_up(int tid, level_t depth) {
  std::uint64_t* ctr = counters_.slab(tid);
  // The queued frontier entries are not traversed (the frontier is read
  // from visit_ directly) but must still be consumed so the queue pool
  // swaps back with the all-slots-0 invariant intact. The pop count is
  // ignored: the per-pop convention's bottom-up analog is the mask
  // retirement below, which consumes each frontier (vertex, source)
  // pair exactly once.
  (void)queues_.retire_in(tid, opts_.clear_slots);

  const auto [lo, hi] = owned(tid);
  const auto dist = static_cast<std::size_t>(
      opts_.prefetch_distance > 0 ? opts_.prefetch_distance : 0);
  // Only a live source can reach v this level: a bit the frontier does
  // not carry would keep v scanning its whole in-list for nothing.
  const std::uint64_t live = live_;
  std::uint64_t found_here = 0;

  // Owner-computes pull: this thread is the only writer of seen_[v],
  // visit_next_[v] and its own out-queue for every v in its slice — no
  // RMW, no optimistic races, plain relaxed accesses (the surrounding
  // barriers order everything).
  for (vid_t v = lo; v < hi; ++v) {
    const std::uint64_t seen = seen_[v].load(std::memory_order_relaxed);
    const std::uint64_t missing = live & ~seen;
    if (missing == 0) continue;
    std::uint64_t found = 0;
    std::uint64_t edges = 0;
    const auto nbrs = transpose_->out_neighbors(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (dist > 0 && j + dist < nbrs.size()) {
        __builtin_prefetch(&visit_[nbrs[j + dist]]);
        ++ctr[kPrefetchIssued];
      }
      found |= visit_[nbrs[j]].load(std::memory_order_relaxed);
      ++edges;
      // Early exit once every missing live source has reached v.
      if ((found & missing) == missing) break;
    }
    ctr[kEdgesScanned] += edges;
    const std::uint64_t fresh = found & missing;
    if (fresh == 0) continue;
    found_here |= fresh;
    seen_[v].store(seen | fresh, std::memory_order_relaxed);
    visit_next_[v].store(fresh, std::memory_order_relaxed);
    queues_.push_out(tid, v, graph_.out_degree(v));
  }
  barrier_.arrive_and_wait(&ctr[kBarrierSpins]);  // done reading visit_

  // Retire this slice of the just-consumed frontier: the owner records
  // depth in each vertex's planes and zeroes its mask, so the level-end
  // swap keeps the all-zero invariant.
  const LevelPlanes planes = level_planes(depth);
  for (vid_t v = lo; v < hi; ++v) {
    const std::uint64_t mask = visit_[v].load(std::memory_order_relaxed);
    if (mask == 0) continue;
    visit_[v].store(0, std::memory_order_relaxed);
    ++ctr[kVerticesExplored];
    planes.record(v, mask);
  }
  return found_here;
}

void MsBfsSession::write_rows(int tid, int planes, MsBfsResult& out) {
  const auto [lo, hi] = owned(tid);
  const int ns = out.num_sources;
  const vid_t* perm = graph_.is_reordered() ? graph_.perm().data() : nullptr;
  std::uint64_t* reached = tallies_[static_cast<std::size_t>(tid)]->reached;
  std::fill(reached, reached + kMaxBatch, std::uint64_t{0});
  level_t* rows[kMaxBatch] = {};
  for (int s = 0; s < ns; ++s) {
    rows[s] = out.distance[static_cast<std::size_t>(s)].data();
  }
  std::uint64_t* plane[kMaxPlanes] = {};
  for (int k = 0; k < planes; ++k) plane[k] = planes_[k].data();

  // Chunks of 256 original ids, decoded in blocks of eight. Depths up
  // to 127 (seven planes) decode eight sources per word through kSpread
  // into signed bytes — an unreached source becomes 0xFF, i.e.
  // kUnvisited — and a byte transpose turns eight vertices' words into
  // eight sources' runs, staged so that each row then takes the chunk in
  // one sequential run (rows sit a multiple of the page size apart, so
  // short interleaved runs would evict each other's lines). Deeper waves
  // decode bit by bit.
  constexpr vid_t kChunk = 256;
  constexpr vid_t kBlock = 8;
  const int groups = (ns + 7) / 8;
  alignas(64) std::int8_t staged[kMaxBatch][kChunk] = {};
  std::uint64_t seen[kBlock] = {};
  std::uint64_t word[kMaxPlanes][kBlock] = {};
  for (vid_t c = lo; c < hi; c += kChunk) {
    const vid_t chunk = std::min(kChunk, hi - c);
    for (vid_t b = 0; b < chunk; b += kBlock) {
      const vid_t len = std::min(kBlock, chunk - b);
      for (vid_t i = 0; i < len; ++i) {
        const vid_t v = perm != nullptr ? perm[c + b + i] : c + b + i;
        seen[i] = seen_[v].load(std::memory_order_relaxed);
        seen_[v].store(0, std::memory_order_relaxed);
        for (int k = 0; k < planes; ++k) {
          word[k][i] = plane[k][v];
          plane[k][v] = 0;
        }
      }
      // A short tail block's spare lanes count no reach; their decoded
      // bytes are never copied out.
      std::fill(seen + len, seen + kBlock, std::uint64_t{0});
      if (planes > 7) {
        for (vid_t i = 0; i < len; ++i) {
          for (int s = 0; s < ns; ++s) {
            level_t d = kUnvisited;
            if ((seen[i] >> s) & 1) {
              ++reached[s];
              d = 0;
              for (int k = 0; k < planes; ++k) {
                d |= static_cast<level_t>((word[k][i] >> s) & 1) << k;
              }
            }
            rows[s][c + b + i] = d;
          }
        }
        continue;
      }
      for (int g = 0; g < groups; ++g) {
        const int shift = 8 * g;
        std::uint64_t x[kBlock];
        std::uint64_t lanes = 0;  // per-source reach counts, one byte each
        for (vid_t i = 0; i < kBlock; ++i) {
          const std::uint64_t hit = kSpread[(seen[i] >> shift) & 0xFF];
          lanes += hit;
          std::uint64_t d = ~(hit * 0xFF);
          for (int k = 0; k < planes; ++k) {
            d |= kSpread[(word[k][i] >> shift) & 0xFF] << k;
          }
          x[i] = d;
        }
        transpose_bytes(x);
        for (int j = 0; j < 8 && 8 * g + j < ns; ++j) {
          std::memcpy(&staged[8 * g + j][b], &x[j], sizeof x[j]);
          reached[8 * g + j] += (lanes >> (8 * j)) & 0xFF;
        }
      }
    }
    if (planes > 7) continue;
    for (int s = 0; s < ns; ++s) {
      level_t* row = rows[s] + c;
      for (vid_t i = 0; i < chunk; ++i) row[i] = staged[s][i];
    }
  }
}

void MsBfsSession::scrub(int tid) {
  const auto [lo, hi] = owned(tid);
  for (vid_t v = lo; v < hi; ++v) {
    seen_[v].store(0, std::memory_order_relaxed);
    visit_[v].store(0, std::memory_order_relaxed);
    visit_next_[v].store(0, std::memory_order_relaxed);
    for (int k = 0; k < num_planes_; ++k) planes_[k][v] = 0;
  }
}

MsBfsResult multi_source_bfs(const CsrGraph& graph,
                             const std::vector<vid_t>& sources,
                             const BFSOptions& options) {
  MsBfsSession session(graph, options);
  return session.run(sources);
}

}  // namespace optibfs
