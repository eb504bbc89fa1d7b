#include "baselines/direction_optimizing.hpp"

#include <algorithm>
#include <stdexcept>

namespace optibfs {
namespace {

void set_bit(std::vector<std::atomic<std::uint64_t>>& bits, vid_t v) {
  bits[v >> 6].fetch_or(std::uint64_t{1} << (v & 63),
                        std::memory_order_relaxed);
}

bool test_bit(const std::vector<std::atomic<std::uint64_t>>& bits, vid_t v) {
  return (bits[v >> 6].load(std::memory_order_relaxed) &
          (std::uint64_t{1} << (v & 63))) != 0;
}

}  // namespace

DirectionOptimizingBFS::DirectionOptimizingBFS(const CsrGraph& graph,
                                               BFSOptions opts,
                                               TeamHandle team, int alpha,
                                               int beta)
    : graph_(graph),
      transpose_(graph.transpose()),
      opts_(opts),
      alpha_(alpha),
      beta_(beta),
      p_(team.width()),
      barrier_(p_),
      front_bits_((static_cast<std::size_t>(graph.num_vertices()) + 63) / 64),
      next_bits_((static_cast<std::size_t>(graph.num_vertices()) + 63) / 64),
      local_next_(static_cast<std::size_t>(p_)),
      counters_(static_cast<std::size_t>(p_)),
      team_(std::move(team)) {}

void DirectionOptimizingBFS::run(vid_t source, BFSResult& out) {
  const vid_t n = graph_.num_vertices();
  if (source >= n) {
    throw std::out_of_range("DirectionOptimizingBFS::run: bad source");
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
  std::atomic<bool> bottom_up_shared{false};
  // Remaining unexplored edges, updated in the serial epilogue only.
  std::uint64_t edges_unexplored = graph_.num_edges();
  std::uint64_t frontier_edges = graph_.out_degree(source);

  team_.run([&](int tid) {
    level_t depth = 0;  // lockstep via barriers; per-thread copy is safe
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
    const std::size_t words = front_bits_.size();
    const std::size_t wlo = words * static_cast<std::size_t>(tid) /
                            static_cast<std::size_t>(p_);
    const std::size_t whi = words * (static_cast<std::size_t>(tid) + 1) /
                            static_cast<std::size_t>(p_);
    for (std::size_t i = wlo; i < whi; ++i) {
      front_bits_[i].store(0, std::memory_order_relaxed);
      next_bits_[i].store(0, std::memory_order_relaxed);
    }
    if (barrier_.arrive_and_wait()) {
      out.level[source] = 0;
      out.parent[source] = source;
      set_bit(front_bits_, source);
    }
    barrier_.arrive_and_wait();

    ThreadCounters& tc = counters_[static_cast<std::size_t>(tid)].value;
    std::vector<vid_t>& next = local_next_[static_cast<std::size_t>(tid)];

    while (more.load(std::memory_order_acquire)) {
      next.clear();
      tc.next_count = 0;
      tc.next_edges = 0;
      const bool bottom_up = bottom_up_shared.load(std::memory_order_acquire);

      if (bottom_up) {
        // Bottom-up step: each unvisited vertex searches its
        // in-neighbors for a frontier parent; first hit wins and the
        // scan short-circuits (the step's whole advantage).
        for (vid_t v = lo; v < hi; ++v) {
          if (out.level[v] != kUnvisited) continue;
          const auto parents = transpose_.out_neighbors(v);
          for (const vid_t u : parents) {
            ++tc.edges;
            if (test_bit(front_bits_, u)) {
              out.level[v] = depth + 1;  // only this thread writes v's slice
              out.parent[v] = u;
              set_bit(next_bits_, v);
              ++tc.next_count;
              tc.next_edges += graph_.out_degree(v);
              break;
            }
          }
          ++tc.vertices;
        }
      } else {
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
            std::atomic_ref<level_t> lvl(out.level[w]);
            level_t expected = kUnvisited;
            if (lvl.load(std::memory_order_relaxed) == kUnvisited &&
                lvl.compare_exchange_strong(expected, depth + 1,
                                            std::memory_order_relaxed,
                                            std::memory_order_relaxed)) {
              std::atomic_ref<vid_t>(out.parent[w])
                  .store(v, std::memory_order_relaxed);
              set_bit(next_bits_, w);
              next.push_back(w);
              ++tc.next_count;
              tc.next_edges += graph_.out_degree(w);
            }
          }
        }
      }

      if (barrier_.arrive_and_wait()) {
        std::uint64_t total = 0;
        std::uint64_t total_edges = 0;
        for (const auto& c : counters_) {
          total += c.value.next_count;
          total_edges += c.value.next_edges;
        }
        edges_unexplored -= std::min(edges_unexplored, frontier_edges);
        frontier_edges = total_edges;

        // Beamer's switching rules.
        bool next_bottom_up = bottom_up;
        if (!bottom_up &&
            total_edges * static_cast<std::uint64_t>(alpha_) >
                edges_unexplored) {
          next_bottom_up = true;
        } else if (bottom_up && total * static_cast<std::uint64_t>(beta_) <
                                    n) {
          next_bottom_up = false;
        }

        frontier_.clear();
        if (total > 0 && !next_bottom_up) {
          if (bottom_up) {
            // Regenerate the queue from the bitmap.
            for (vid_t v = 0; v < n; ++v) {
              if (out.level[v] == depth + 1) frontier_.push_back(v);
            }
          } else {
            for (auto& lq : local_next_) {
              frontier_.insert(frontier_.end(), lq.begin(), lq.end());
            }
          }
        }
        bottom_up_shared.store(next_bottom_up, std::memory_order_release);
        // next_bits becomes front_bits.
        for (std::size_t i = 0; i < front_bits_.size(); ++i) {
          front_bits_[i].store(
              next_bits_[i].load(std::memory_order_relaxed),
              std::memory_order_relaxed);
          next_bits_[i].store(0, std::memory_order_relaxed);
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
