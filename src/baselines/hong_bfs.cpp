#include "baselines/hong_bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace optibfs {

std::string_view hong_variant_name(HongVariant variant) {
  switch (variant) {
    case HongVariant::kQueue: return "HONG_QUEUE";
    case HongVariant::kRead: return "HONG_READ";
    case HongVariant::kHybrid: return "HONG_HYBRID";
    case HongVariant::kHybridBitmap: return "HONG_LOCAL_BITMAP";
  }
  return "HONG_UNKNOWN";
}

HongBFS::HongBFS(const CsrGraph& graph, BFSOptions opts, HongVariant variant,
                 TeamHandle team)
    : graph_(graph),
      opts_(opts),
      variant_(variant),
      p_(team.width()),
      barrier_(p_),
      local_next_(static_cast<std::size_t>(p_)),
      counters_(static_cast<std::size_t>(p_)),
      team_(std::move(team)) {
  if (use_bitmap()) {
    bitmap_ = std::vector<std::atomic<std::uint64_t>>(
        (static_cast<std::size_t>(graph.num_vertices()) + 63) / 64);
  }
  frontier_.reserve(graph.num_vertices());
}

bool HongBFS::choose_read_mode(std::uint64_t frontier_size) const {
  if (variant_ == HongVariant::kRead) return true;
  if (variant_ == HongVariant::kQueue) return false;
  // Hong's hybrid heuristic: the read pass costs O(n + frontier edges);
  // the queue pass costs O(frontier). Read wins once the frontier is a
  // sizable fraction of the graph.
  return frontier_size * 16 > graph_.num_vertices();
}

bool HongBFS::claim(BFSResult& out, vid_t w, level_t next_depth) {
  if (use_bitmap()) {
    std::atomic<std::uint64_t>& word = bitmap_[w >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (w & 63);
    if ((word.load(std::memory_order_relaxed) & bit) != 0) return false;
    // The atomic instruction the IPDPSW paper's engines avoid.
    if ((word.fetch_or(bit, std::memory_order_relaxed) & bit) != 0) {
      return false;
    }
    std::atomic_ref<level_t>(out.level[w])
        .store(next_depth, std::memory_order_relaxed);
    return true;
  }
  if (variant_ == HongVariant::kRead) {
    // Pure read-based mode needs no claim at all: concurrent writers all
    // store the same depth, and no queue membership depends on winning.
    std::atomic_ref<level_t> lvl(out.level[w]);
    if (lvl.load(std::memory_order_relaxed) != kUnvisited) return false;
    lvl.store(next_depth, std::memory_order_relaxed);
    return true;
  }
  // CAS directly on the level entry.
  std::atomic_ref<level_t> lvl(out.level[w]);
  level_t expected = kUnvisited;
  return lvl.compare_exchange_strong(expected, next_depth,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed);
}

void HongBFS::run(vid_t source, BFSResult& out) {
  const vid_t n = graph_.num_vertices();
  if (source >= n) {
    throw std::out_of_range("HongBFS::run: source out of range");
  }
  source = graph_.to_internal(source);  // results remapped back at the end
  out.level.resize(n);
  out.parent.resize(n);
  out.num_levels = 0;
  out.vertices_visited = 0;
  out.vertices_explored = 0;
  out.edges_scanned = 0;
  out.steal_stats = {};
  out.counters = {};
  out.claim_skips = 0;

  frontier_.clear();
  frontier_.push_back(source);
  for (auto& c : counters_) c.value = ThreadCounters{};

  std::atomic<bool> more{true};
  // The level's mode is decided once (serial epilogue) and shared: in
  // read mode the queue is empty, so per-thread recomputation from
  // frontier_.size() would be wrong.
  std::atomic<bool> read_mode_shared{choose_read_mode(1)};

  team_.run([&](int tid) {
    // Advances in lockstep across threads (two barriers per level), so
    // a per-thread copy stays consistent without any sharing.
    level_t depth = 0;
    // Parallel reset.
    const vid_t lo = static_cast<vid_t>(
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(tid) /
        static_cast<std::uint64_t>(p_));
    const vid_t hi = static_cast<vid_t>(
        static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(tid) + 1) /
        static_cast<std::uint64_t>(p_));
    for (vid_t v = lo; v < hi; ++v) {
      out.level[v] = kUnvisited;
      out.parent[v] = kInvalidVertex;
    }
    if (use_bitmap()) {
      const std::size_t words = bitmap_.size();
      const std::size_t wlo = words * static_cast<std::size_t>(tid) /
                              static_cast<std::size_t>(p_);
      const std::size_t whi = words * (static_cast<std::size_t>(tid) + 1) /
                              static_cast<std::size_t>(p_);
      for (std::size_t i = wlo; i < whi; ++i) {
        bitmap_[i].store(0, std::memory_order_relaxed);
      }
    }
    if (barrier_.arrive_and_wait()) {
      out.level[source] = 0;
      out.parent[source] = source;
      if (use_bitmap()) {
        bitmap_[source >> 6].store(std::uint64_t{1} << (source & 63),
                                   std::memory_order_relaxed);
      }
    }
    barrier_.arrive_and_wait();

    ThreadCounters& tc = counters_[static_cast<std::size_t>(tid)].value;
    std::vector<vid_t>& next = local_next_[static_cast<std::size_t>(tid)];

    while (more.load(std::memory_order_acquire)) {
      next.clear();
      tc.next_count = 0;
      const bool read_mode = read_mode_shared.load(std::memory_order_acquire);

      if (read_mode) {
        // Read-based pass: scan the whole level array for depth-d
        // vertices and expand them. No queue is produced; the next
        // level repeats the scan.
        for (vid_t v = lo; v < hi; ++v) {
          // Concurrent claims may be writing other entries of the same
          // array; the scan must use an atomic view too (the value race
          // is benign: a just-claimed vertex reads depth+1 != depth).
          if (std::atomic_ref<level_t>(out.level[v])
                  .load(std::memory_order_relaxed) != depth) {
            continue;
          }
          ++tc.vertices;
          const auto nbrs = graph_.out_neighbors(v);
          tc.edges += nbrs.size();
          for (const vid_t w : nbrs) {
            if (claim(out, w, depth + 1)) {
              std::atomic_ref<vid_t>(out.parent[w])
                  .store(v, std::memory_order_relaxed);
              ++tc.next_count;
            }
          }
        }
      } else {
        // Queue-based pass over a static partition of the frontier.
        const std::size_t fsize = frontier_.size();
        const std::size_t flo = fsize * static_cast<std::size_t>(tid) /
                                static_cast<std::size_t>(p_);
        const std::size_t fhi = fsize * (static_cast<std::size_t>(tid) + 1) /
                                static_cast<std::size_t>(p_);
        for (std::size_t i = flo; i < fhi; ++i) {
          const vid_t v = frontier_[i];
          ++tc.vertices;
          const auto nbrs = graph_.out_neighbors(v);
          tc.edges += nbrs.size();
          for (const vid_t w : nbrs) {
            if (claim(out, w, depth + 1)) {
              std::atomic_ref<vid_t>(out.parent[w])
                  .store(v, std::memory_order_relaxed);
              next.push_back(w);
              ++tc.next_count;
            }
          }
        }
      }

      if (barrier_.arrive_and_wait()) {
        // Serial epilogue: assemble the next frontier.
        std::uint64_t total = 0;
        for (const auto& c : counters_) total += c.value.next_count;
        const bool next_read = choose_read_mode(total);
        read_mode_shared.store(next_read, std::memory_order_release);
        frontier_.clear();
        if (!next_read && total > 0) {
          if (read_mode) {
            // Mode switch read -> queue: rebuild the frontier by
            // scanning for depth+1 vertices (Hong's regeneration step).
            for (vid_t v = 0; v < n; ++v) {
              if (out.level[v] == depth + 1) frontier_.push_back(v);
            }
          } else {
            for (auto& lq : local_next_) {
              frontier_.insert(frontier_.end(), lq.begin(), lq.end());
            }
          }
        }
        more.store(total > 0, std::memory_order_release);
      }
      barrier_.arrive_and_wait();
      ++depth;
    }
  });

  std::uint64_t visited = 0;
  level_t max_level = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (out.level[v] != kUnvisited) {
      ++visited;
      max_level = std::max(max_level, out.level[v]);
    }
  }
  out.vertices_visited = visited;
  out.num_levels = max_level + 1;
  for (const auto& c : counters_) {
    out.vertices_explored += c.value.vertices;
    out.edges_scanned += c.value.edges;
    out.counters[telemetry::kVerticesExplored] += c.value.vertices;
    out.counters[telemetry::kEdgesScanned] += c.value.edges;
  }
  remap_result_to_original(graph_, out);
}

}  // namespace optibfs
