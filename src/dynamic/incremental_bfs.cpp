#include "dynamic/incremental_bfs.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace optibfs {

namespace {

/// Admission probe/store: returns true when w improved to d. All racing
/// writers of a wave store the same d (benign same-value race), made
/// defined with relaxed atomic_ref — compiles to plain mov on x86-64.
inline bool admit_vertex(level_t* level, vid_t w, level_t d) {
  std::atomic_ref<level_t> slot(level[w]);
  const level_t lv = slot.load(std::memory_order_relaxed);
  if (lv != kUnvisited && lv <= d) return false;
  slot.store(d, std::memory_order_relaxed);
  return true;
}

inline bool improvable(const level_t* level, vid_t x, level_t bound) {
  const level_t lx =
      std::atomic_ref<const level_t>(level[x]).load(std::memory_order_relaxed);
  return lx == kUnvisited || lx > bound;
}

}  // namespace

IncrementalBfsEngine::IncrementalBfsEngine(Config config)
    : IncrementalBfsEngine(config,
                           TeamHandle(config.bfs.num_threads,
                                      config.bfs.pin_threads,
                                      /*deferred=*/true)) {}

IncrementalBfsEngine::IncrementalBfsEngine(Config config, ThreadTeam& team)
    : IncrementalBfsEngine(config, TeamHandle(team)) {}

IncrementalBfsEngine::IncrementalBfsEngine(Config config, TeamHandle team)
    : config_(config),
      p_(team.width()),
      barrier_(p_),
      counters_(p_ + 1),
      lanes_(static_cast<std::size_t>(p_)),
      team_(std::move(team)) {
  config_.bfs.num_threads = p_;
}

bool IncrementalBfsEngine::collect_cone(const GraphSnapshot& snap,
                                        const BatchSummary& batch,
                                        const std::vector<level_t>& level,
                                        std::uint64_t cap,
                                        RepairOutcome& out) {
  const vid_t n = snap.num_vertices();
  if (mark_.size() != n || ++mark_gen_ == 0) {
    mark_.assign(n, 0);
    mark_gen_ = 1;
  }
  cone_.clear();
  const auto marked = [&](vid_t v) { return mark_[v] == mark_gen_; };
  // A vertex keeps its old level iff a surviving parent on the previous
  // shortest-path frontier remains outside the cone; otherwise it is
  // suspect. Pruned vertices are re-examined whenever a new parent
  // joins the cone (every cone member rescans all its out-edges), so
  // the prune is sound.
  const auto has_safe_parent = [&](vid_t v) {
    if (level[v] <= 0) return true;  // the source never needs a parent
    const level_t want = level[v] - 1;
    bool found = false;
    snap.for_each_in(v, [&](vid_t q) {
      if (level[q] == want && !marked(q)) {
        found = true;
        return false;  // stop the walk
      }
      return true;
    });
    return found;
  };
  const auto try_mark = [&](vid_t v) {
    if (marked(v) || has_safe_parent(v)) return true;
    mark_[v] = mark_gen_;
    cone_.push_back(v);
    return cone_.size() <= cap;
  };

  // Heads: targets of deleted tree edges (old level exactly parent+1).
  for (const auto& [u, v] : batch.deletes) {
    if (level[u] == kUnvisited || level[v] != level[u] + 1) continue;
    if (!try_mark(v)) return false;
  }
  // Old-level-consistent expansion: anything whose old shortest path
  // may have run through the cone.
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    const vid_t w = cone_[i];
    bool ok = true;
    snap.for_each_out(w, [&](vid_t x) {
      if (!marked(x) && level[x] == level[w] + 1 && !try_mark(x)) {
        ok = false;
        return false;
      }
      return true;
    });
    if (!ok) return false;
  }
  out.cone_size = cone_.size();
  return true;
}

void IncrementalBfsEngine::build_seeds(const GraphSnapshot& snap,
                                       const BatchSummary& batch,
                                       std::vector<level_t>& level,
                                       RepairOutcome& out) {
  seeds_.clear();
  const auto marked = [&](vid_t v) { return mark_[v] == mark_gen_; };
  // Invalidate the cone first so boundary scans see exactly the
  // surviving levels.
  for (const vid_t w : cone_) level[w] = kUnvisited;
  // Surviving in-boundary: any edge from a valid outside vertex back
  // into the cone bounds the cone member's new level.
  for (const vid_t w : cone_) {
    snap.for_each_in(w, [&](vid_t u) {
      if (!marked(u) && level[u] != kUnvisited) {
        seeds_.emplace_back(level[u] + 1, w);
      }
    });
  }
  // Inserted edges whose source kept a valid level may shorten paths
  // anywhere (inserts from cone members are covered by the wave itself
  // once the cone re-fills). The summary can list an edge under both
  // inserts and deletes when one batch inserts and then deletes it, so
  // only edges that survived into this snapshot may seed — a phantom
  // seed would lower level[v] through an edge that no longer exists.
  for (const auto& [u, v] : batch.inserts) {
    if (level[u] == kUnvisited) continue;
    if ((level[v] == kUnvisited || level[u] + 1 < level[v]) &&
        snap.has_edge(u, v)) {
      seeds_.emplace_back(level[u] + 1, v);
    }
  }
  std::sort(seeds_.begin(), seeds_.end());
  out.seeds = seeds_.size();
}

bool IncrementalBfsEngine::prepare_wave(bool /*first*/) {
  frontier_.clear();
  for (auto& lane : lanes_) {
    frontier_.insert(frontier_.end(), lane.value.next.begin(),
                     lane.value.next.end());
    lane.value.next.clear();
  }
  if (frontier_.empty()) {
    // Ripple died out — jump straight to the next seed depth (seed
    // levels are sorted and the cursor has consumed everything at or
    // below the last wave, so the jump is always forward).
    if (seed_cursor_ >= seeds_.size()) return false;
    wave_d_ = seeds_[seed_cursor_].first;
  } else {
    ++wave_d_;
  }
  while (seed_cursor_ < seeds_.size() &&
         seeds_[seed_cursor_].first == wave_d_) {
    frontier_.push_back(seeds_[seed_cursor_++].second);
  }
  ++waves_this_run_;
  counters_.slab(p_)[telemetry::kRepairWaves] += 1;
  return true;
}

void IncrementalBfsEngine::wave_worker(int tid, const GraphSnapshot& snap,
                                       level_t* level) {
  std::uint64_t* ctr = counters_.slab(tid);
  Lane& lane = lanes_[static_cast<std::size_t>(tid)].value;
  for (;;) {
    if (barrier_.arrive_and_wait(&ctr[telemetry::kBarrierSpins])) {
      wave_done_ = !prepare_wave(false);
    }
    barrier_.arrive_and_wait(&ctr[telemetry::kBarrierSpins]);
    if (wave_done_) break;
    const level_t d = wave_d_;
    // Admission: static slice of the frontier. Racing admissions of the
    // same vertex all store the same d; the duplicate relax work is the
    // price of lock-freedom (counted, bounded, benign).
    lane.active.clear();
    const std::size_t sz = frontier_.size();
    const std::size_t lo = sz * static_cast<std::size_t>(tid) /
                           static_cast<std::size_t>(p_);
    const std::size_t hi = sz * (static_cast<std::size_t>(tid) + 1) /
                           static_cast<std::size_t>(p_);
    for (std::size_t i = lo; i < hi; ++i) {
      const vid_t w = frontier_[i];
      if (admit_vertex(level, w, d)) {
        lane.active.push_back(w);
        ++ctr[telemetry::kVerticesExplored];
      } else {
        ++ctr[telemetry::kDuplicatePops];
      }
    }
    barrier_.arrive_and_wait(&ctr[telemetry::kBarrierSpins]);
    // Relax: level[] is read-only here; improvements are deferred to
    // the next wave's admission so the two phases never race a load
    // against a store of a *different* value.
    for (const vid_t w : lane.active) {
      snap.for_each_out(w, [&](vid_t x) {
        ++ctr[telemetry::kEdgesScanned];
        if (improvable(level, x, static_cast<level_t>(d + 1))) {
          lane.next.push_back(x);
        }
      });
    }
  }
}

void IncrementalBfsEngine::run_waves(const GraphSnapshot& snap,
                                     std::vector<level_t>& level,
                                     bool parallel, RepairOutcome& out) {
  seed_cursor_ = 0;
  wave_d_ = 0;
  wave_done_ = false;
  waves_this_run_ = 0;
  frontier_.clear();
  for (auto& lane : lanes_) {
    lane.value.active.clear();
    lane.value.next.clear();
  }
  if (parallel && p_ > 1) {
    team_.run([&](int tid) { wave_worker(tid, snap, level.data()); });
  } else {
    level_t* lv = level.data();
    std::uint64_t* ctr = counters_.slab(0);
    Lane& lane = lanes_[0].value;
    while (prepare_wave(false)) {
      const std::uint64_t t0 = trace_.now();
      const level_t d = wave_d_;
      lane.active.clear();
      for (const vid_t w : frontier_) {
        if (admit_vertex(lv, w, d)) {
          lane.active.push_back(w);
          ++ctr[telemetry::kVerticesExplored];
        } else {
          ++ctr[telemetry::kDuplicatePops];
        }
      }
      for (const vid_t w : lane.active) {
        snap.for_each_out(w, [&](vid_t x) {
          ++ctr[telemetry::kEdgesScanned];
          if (improvable(lv, x, static_cast<level_t>(d + 1))) {
            lane.next.push_back(x);
          }
        });
      }
      trace_.span(telemetry::kEvRepairWave, t0,
                  static_cast<std::uint64_t>(d));
    }
  }
  (void)out;
}

void IncrementalBfsEngine::finish_run(RepairOutcome& out) {
  const telemetry::CounterSnapshot snap = counters_.aggregate();
  out.waves = waves_this_run_;
  out.admitted = snap[telemetry::kVerticesExplored];
  out.edges_relaxed = snap[telemetry::kEdgesScanned];
  totals_ += snap;
  if (config_.bfs.telemetry != nullptr) {
    config_.bfs.telemetry->add_counters(snap);
  }
}

bool batch_affects_levels(const GraphSnapshot& snap,
                          const std::vector<level_t>& levels,
                          const BatchSummary& summary) {
  for (const auto& [u, v] : summary.inserts) {
    if (levels[u] == kUnvisited) continue;
    if ((levels[v] == kUnvisited || levels[u] + 1 < levels[v]) &&
        snap.has_edge(u, v)) {
      return true;
    }
  }
  for (const auto& [u, v] : summary.deletes) {
    if (levels[u] != kUnvisited && levels[v] == levels[u] + 1) return true;
  }
  return false;
}

RepairOutcome IncrementalBfsEngine::repair(const GraphSnapshot& snap,
                                           const BatchSummary& batch,
                                           vid_t source,
                                           std::vector<level_t>& level) {
  const vid_t n = snap.num_vertices();
  if (level.size() != n) {
    throw std::invalid_argument(
        "IncrementalBfsEngine::repair: level array size mismatch");
  }
  if (source >= n) {
    throw std::invalid_argument(
        "IncrementalBfsEngine::repair: source out of range");
  }
  if (config_.bfs.telemetry != nullptr && !trace_.attached()) {
    trace_.attach(*config_.bfs.telemetry, "dynamic.repair");
  }
  const std::uint64_t t0 = trace_.now();
  counters_.reset();
  RepairOutcome out;

  const std::uint64_t cap =
      config_.cone_recompute_fraction > 0
          ? static_cast<std::uint64_t>(config_.cone_recompute_fraction *
                                       static_cast<double>(n))
          : 0;
  if (!collect_cone(snap, batch, level, cap, out)) {
    // Cone too large: bail out *before any mutation* — `level` is still
    // the valid pre-batch answer and the caller recomputes.
    counters_.slab(p_)[telemetry::kConeRecomputes] += 1;
    out.repaired = false;
    out.cone_size = cone_.size();
    finish_run(out);
    trace_.span(telemetry::kEvRepair, t0, out.cone_size);
    return out;
  }
  build_seeds(snap, batch, level, out);
  if (!seeds_.empty()) {
    const std::uint64_t estimate = out.seeds + out.cone_size;
    const bool parallel =
        p_ > 1 && (config_.parallel_cutoff == 0 ||
                   estimate >= config_.parallel_cutoff);
    run_waves(snap, level, parallel, out);
  }
  finish_run(out);
  trace_.span(telemetry::kEvRepair, t0, out.cone_size);
  return out;
}

RepairOutcome IncrementalBfsEngine::recompute(const GraphSnapshot& snap,
                                              vid_t source,
                                              std::vector<level_t>& level) {
  const vid_t n = snap.num_vertices();
  if (source >= n) {
    throw std::invalid_argument(
        "IncrementalBfsEngine::recompute: source out of range");
  }
  if (config_.bfs.telemetry != nullptr && !trace_.attached()) {
    trace_.attach(*config_.bfs.telemetry, "dynamic.repair");
  }
  const std::uint64_t t0 = trace_.now();
  counters_.reset();
  RepairOutcome out;
  level.assign(n, kUnvisited);
  cone_.clear();
  seeds_.assign(1, {level_t{0}, source});
  out.seeds = 1;
  const bool parallel =
      p_ > 1 &&
      (config_.parallel_cutoff == 0 || n >= config_.parallel_cutoff);
  run_waves(snap, level, parallel, out);
  finish_run(out);
  trace_.span(telemetry::kEvRepair, t0, 0);
  return out;
}

}  // namespace optibfs
