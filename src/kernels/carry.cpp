#include "kernels/carry.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_map>

namespace optibfs::kernels {

namespace {

/// Full passes over the superposed out+in view one CC or KCORE carry
/// may spend in neighbour visits before it gives up and the caller
/// recomputes. Two: a from-scratch KCORE makes tens of passes (a
/// recount at every core level) and CC at least three, so a carry
/// within two still costs a fraction of either, while one insert inside
/// an RMAT-15 graph's 4.5k-vertex top core can walk close to one pass.
constexpr std::uint64_t kCarryPasses = 2;

std::uint64_t carry_budget(const GraphSnapshot& after) {
  return kCarryPasses *
         (2 * static_cast<std::uint64_t>(after.num_edges()) + after.num_vertices());
}

std::uint32_t multiplicity(const GraphSnapshot& g, vid_t u, vid_t v) {
  std::uint32_t copies = 0;
  g.for_each_out(u, [&](vid_t w) { copies += w == v; });
  return copies;
}

/// The superposed out+in neighbour multiset of a snapshot, with some
/// neighbour copies hidden: the graph part-way between two versions.
/// Counts every neighbour it visits against the carry budget.
class View {
 public:
  View(const GraphSnapshot& g, std::uint64_t budget) : g_(g), budget_(budget) {}

  /// Hides `copies` more copies of w in N(x) (negative: reveals them).
  void hide(vid_t x, vid_t w, std::int64_t copies) {
    auto& list = hidden_[x];
    for (auto& [y, c] : list) {
      if (y == w) {
        c += copies;
        return;
      }
    }
    list.emplace_back(w, copies);
  }
  /// Hides `copies` copies of the directed edge u -> v from both
  /// endpoints (a self-loop is two copies of u in N(u)).
  void hide_edge(vid_t u, vid_t v, std::int64_t copies) {
    if (u == v) {
      hide(u, u, 2 * copies);
      return;
    }
    hide(u, v, copies);
    hide(v, u, copies);
  }

  bool over_budget() const { return visits_ > budget_; }
  void charge(std::uint64_t visits) { visits_ += visits; }

  /// Visits N(x); `f` returns false to stop early.
  template <class F>
  void for_each_neighbor(vid_t x, F&& f) {
    std::vector<std::pair<vid_t, std::int64_t>> skip;
    if (const auto it = hidden_.find(x); it != hidden_.end()) skip = it->second;
    const auto visit = [&](vid_t w) {
      ++visits_;
      for (auto& [y, c] : skip) {
        if (y == w && c > 0) {
          --c;
          return true;
        }
      }
      return f(w);
    };
    bool go = true;
    g_.for_each_out(x, [&](vid_t w) { return go = visit(w); });
    if (go) g_.for_each_in(x, visit);
  }

 private:
  const GraphSnapshot& g_;
  std::uint64_t budget_;
  std::uint64_t visits_ = 0;
  std::unordered_map<vid_t, std::vector<std::pair<vid_t, std::int64_t>>> hidden_;
};

// ---- CC ----

/// What one O(n) label scan costs against the budget, in neighbour
/// visits: a sequential 4-byte pass runs about 8x faster per element
/// than the random probes a neighbour visit makes.
constexpr std::uint64_t scan_charge(vid_t n) { return n / 8; }

/// Gives every vertex labelled `from` that `keep` rejects the label
/// `to`; O(n), sequential.
template <class Keep>
void relabel(std::vector<vid_t>& labels, vid_t from, vid_t to, Keep&& keep) {
  for (vid_t v = 0; v < static_cast<vid_t>(labels.size()); ++v) {
    if (labels[v] == from && !keep(v)) labels[v] = to;
  }
}

// ---- KCORE ----

class CoreCarry {
 public:
  CoreCarry(View& view, std::vector<std::uint32_t>& core)
      : view_(view), core_(core), at_(core.size()) {}

  /// Deletes: h-index descent from the old cores, an upper bound once
  /// edges only go. Lowers each queued vertex to the largest h <= its
  /// core with >= h neighbour copies at >= h and re-queues the
  /// neighbours whose support that cost; the fixpoint is the exact
  /// cores.
  bool descend(std::vector<vid_t> work) {
    for (const vid_t x : work) at_[x].queued = true;
    while (!work.empty() && !view_.over_budget()) {
      const vid_t x = work.back();
      work.pop_back();
      at_[x].queued = false;
      const std::uint32_t old = core_[x];
      const std::uint32_t h = h_index(x, old);
      if (h == old) continue;
      core_[x] = h;
      view_.for_each_neighbor(x, [&](vid_t y) {
        if (core_[y] > h && core_[y] <= old && !at_[y].queued) {
          at_[y].queued = true;
          work.push_back(y);
        }
        return true;
      });
    }
    for (const vid_t x : work) at_[x].queued = false;
    return !view_.over_budget();
  }

  /// Inserts: one unit copy already revealed in the view, between `u`
  /// and `v` (u == v: half a self-loop, a neighbour in every core). The
  /// traversal algorithm of Sariyüce et al.: with K = min(core u,
  /// core v), only core-K vertices whose max-core degree (MCD:
  /// neighbour copies at >= their own core) exceeds K can rise, by 1,
  /// and every riser is connected to an endpoint through risers. A DFS
  /// from the endpoints keeps cd(x) = x's neighbour copies that may
  /// still sit in the (K+1)-core (core > K, or a candidate not yet
  /// evicted); a vertex whose cd falls to K is evicted, and the
  /// eviction propagates. The visited vertices left rise — unless both
  /// endpoints fell, which ends the walk at once: a riser needs a
  /// rising endpoint.
  bool raise(vid_t u, vid_t v) {
    ++step_;
    const std::uint32_t k = std::min(core_[u], core_[v]);
    const auto support_k = static_cast<std::int32_t>(k);  // cd's type
    const auto candidate = [&](vid_t x) {
      return core_[x] == k && max_core_degree_exceeds(x, k);
    };
    std::vector<vid_t> visited, stack, touched;
    const auto visit = [&](vid_t x) {
      at_[x].visited = true;
      visited.push_back(x);
      touched.push_back(x);
      std::int32_t pure = 0;
      view_.for_each_neighbor(x, [&](vid_t y) {
        pure += core_[y] > k || candidate(y);
        return true;
      });
      at_[x].cd += pure;
      stack.push_back(x);
    };
    int live_roots = 0;
    for (const vid_t r : {u, v}) {
      if (candidate(r) && !at_[r].visited) {
        visit(r);
        ++live_roots;
      }
    }
    const auto fall = [&](vid_t x) {
      at_[x].evicted = true;
      live_roots -= x == u || x == v;
    };
    std::vector<vid_t> evict;
    while (!stack.empty() && live_roots > 0 && !view_.over_budget()) {
      const vid_t x = stack.back();
      stack.pop_back();
      if (at_[x].evicted) continue;
      if (at_[x].cd > support_k) {
        view_.for_each_neighbor(x, [&](vid_t y) {
          if (!at_[y].visited && candidate(y)) visit(y);
          return true;
        });
        continue;
      }
      fall(x);
      evict.assign(1, x);
      while (!evict.empty()) {
        const vid_t e = evict.back();
        evict.pop_back();
        view_.for_each_neighbor(e, [&](vid_t y) {
          if (!candidate(y)) return true;
          touched.push_back(y);
          if (--at_[y].cd <= support_k && at_[y].visited && !at_[y].evicted) {
            fall(y);
            evict.push_back(y);
          }
          return true;
        });
      }
    }
    const bool ok = !view_.over_budget();
    for (const vid_t x : visited) {
      if (ok && live_roots > 0 && !at_[x].evicted) core_[x] = k + 1;
    }
    for (const vid_t x : touched) {
      at_[x].cd = 0;
      at_[x].visited = false;
      at_[x].evicted = false;
    }
    return ok;
  }

 private:
  /// Per-vertex scratch, reset by whoever set it.
  struct At {
    std::int32_t cd = 0;         ///< traversal: live (K+1)-core support
    std::uint32_t mcd_step = 0;  ///< insert step mcd_exceeds is for
    bool mcd_exceeds = false;    ///< MCD > K in that step
    bool queued = false;         ///< descent work list
    bool visited = false;        ///< traversal
    bool evicted = false;        ///< traversal
  };

  /// Whether more than k neighbour copies of x have a core >= x's (its
  /// max-core degree exceeds k). Decided once per insert step — cores
  /// only move at a step's end — and the count stops at k + 1, so a
  /// hub costs O(k), not its degree.
  bool max_core_degree_exceeds(vid_t x, std::uint32_t k) {
    At& a = at_[x];
    if (a.mcd_step != step_) {
      a.mcd_step = step_;
      std::uint32_t copies = 0;
      view_.for_each_neighbor(x, [&](vid_t y) {
        copies += core_[y] >= core_[x];
        return copies <= k;
      });
      a.mcd_exceeds = copies > k;
    }
    return a.mcd_exceeds;
  }

  /// Largest h <= cap with at least h neighbour copies whose core is
  /// >= h (self-loop copies count x's own value).
  std::uint32_t h_index(vid_t x, std::uint32_t cap) {
    if (cap == 0) return 0;
    count_.assign(static_cast<std::size_t>(cap) + 1, 0);
    view_.for_each_neighbor(x, [&](vid_t y) {
      ++count_[std::min(core_[y], cap)];
      return true;
    });
    std::uint64_t at_least = 0;
    for (std::uint32_t h = cap; h > 0; --h) {
      at_least += count_[h];
      if (at_least >= h) return h;
    }
    return 0;
  }

  View& view_;
  std::vector<std::uint32_t>& core_;
  std::vector<At> at_;
  std::uint32_t step_ = 0;
  std::vector<std::uint64_t> count_;
};

}  // namespace

std::vector<PairChange> net_changes(
    const GraphSnapshot& before, const GraphSnapshot& after,
    const std::vector<std::pair<vid_t, vid_t>>& touched) {
  std::vector<std::pair<vid_t, vid_t>> pairs = touched;
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<PairChange> out;
  for (const auto& [u, v] : pairs) {
    const PairChange c{u, v, multiplicity(before, u, v), multiplicity(after, u, v)};
    if (c.before != c.after) out.push_back(c);
  }
  return out;
}

bool carry_components(const GraphSnapshot& before, const GraphSnapshot& after,
                      const std::vector<PairChange>& changes,
                      std::vector<vid_t>& labels, std::vector<vid_t>& sizes) {
  const vid_t n = after.num_vertices();
  // Deletes first, one at a time, on `before` with the deletes so far
  // hidden: the labels stay exact for the graph the search walks.
  View gone(before, carry_budget(after));
  std::vector<unsigned char> side(n, 0);
  std::vector<vid_t> reach[2];
  for (const PairChange& c : changes) {
    if (c.after >= c.before || c.src == c.dst) continue;
    gone.hide_edge(c.src, c.dst, static_cast<std::int64_t>(c.before - c.after));
    if (c.after > 0) continue;  // still adjacent through the other copies
    // Bidirectional search, growing the side that has reached less: a
    // meeting proves the endpoints still connected; a side that runs
    // dry first is a whole component of its own.
    reach[0].assign(1, c.src);
    reach[1].assign(1, c.dst);
    side[c.src] = 1;
    side[c.dst] = 2;
    std::size_t head[2] = {0, 0};
    int dry = -1;
    bool met = false;
    while (!met) {
      if (head[0] == reach[0].size()) dry = 0;
      else if (head[1] == reach[1].size()) dry = 1;
      if (dry >= 0) break;
      const int s = reach[0].size() <= reach[1].size() ? 0 : 1;
      const auto mine = static_cast<unsigned char>(s + 1);
      const vid_t x = reach[s][head[s]++];
      gone.for_each_neighbor(x, [&](vid_t w) {
        if (side[w] == 0) {
          side[w] = mine;
          reach[s].push_back(w);
        } else if (side[w] != mine) {
          met = true;
        }
        return !met;
      });
      if (gone.over_budget()) return false;
    }
    if (dry >= 0) {
      const std::vector<vid_t>& split = reach[dry];
      const auto mine = static_cast<unsigned char>(dry + 1);
      const vid_t old = labels[c.src];
      const vid_t low = *std::min_element(split.begin(), split.end());
      const auto count = static_cast<vid_t>(split.size());
      if (low != old) {
        for (const vid_t x : split) labels[x] = low;
        sizes[old] -= count;
        sizes[low] = count;
      } else {
        // The split side keeps the old label (its minimum); the rest
        // takes its own minimum, found by one ascending label scan.
        vid_t rest = kInvalidVertex;
        for (vid_t v = 0; v < n && rest == kInvalidVertex; ++v) {
          if (labels[v] == old && side[v] != mine) rest = v;
        }
        relabel(labels, old, rest, [&](vid_t v) { return side[v] == mine; });
        gone.charge(scan_charge(n));
        sizes[rest] = sizes[old] - count;
        sizes[old] = count;
      }
    }
    for (const std::vector<vid_t>& r : reach) {
      for (const vid_t x : r) side[x] = 0;
    }
  }
  // Then inserts: a join relabels the larger label's side. Every vertex
  // carrying that label is in it, so one ascending scan finds them.
  for (const PairChange& c : changes) {
    if (c.before > 0 || c.src == c.dst) continue;
    const vid_t a = labels[c.src];
    const vid_t b = labels[c.dst];
    if (a == b) continue;
    const vid_t low = std::min(a, b);
    const vid_t high = std::max(a, b);
    relabel(labels, high, low, [](vid_t) { return false; });
    gone.charge(scan_charge(n));
    sizes[low] += sizes[high];
    sizes[high] = 0;
  }
  return !gone.over_budget();
}

bool carry_core(const GraphSnapshot& after,
                const std::vector<PairChange>& changes,
                std::vector<std::uint32_t>& core) {
  // The view starts at `after` with every inserted copy hidden — that
  // is `before` minus the deletes — and reveals the inserts one unit at
  // a time.
  View view(after, carry_budget(after));
  for (const PairChange& c : changes) {
    if (c.after > c.before) {
      view.hide_edge(c.src, c.dst, static_cast<std::int64_t>(c.after - c.before));
    }
  }
  CoreCarry carry(view, core);
  std::vector<vid_t> work;
  for (const PairChange& c : changes) {
    if (c.after < c.before) {
      work.push_back(c.src);
      if (c.dst != c.src) work.push_back(c.dst);
    }
  }
  std::sort(work.begin(), work.end());
  work.erase(std::unique(work.begin(), work.end()), work.end());
  if (!carry.descend(std::move(work))) return false;
  // Inserts, one copy at a time (each moves cores by at most 1). A
  // self-loop copy adds 2 to its vertex's degree: two unit steps.
  for (const PairChange& c : changes) {
    for (std::uint32_t i = c.before; i < c.after; ++i) {
      if (c.src != c.dst) {
        view.hide_edge(c.src, c.dst, -1);
        if (!carry.raise(c.src, c.dst)) return false;
        continue;
      }
      for (int half = 0; half < 2; ++half) {
        view.hide(c.src, c.src, -1);
        if (!carry.raise(c.src, c.src)) return false;
      }
    }
  }
  return true;
}

void carry_residual(const GraphSnapshot& before, const GraphSnapshot& after,
                    const std::vector<PairChange>& changes, double damping,
                    const std::vector<double>& rank,
                    std::vector<double>& residual) {
  std::vector<vid_t> moved;
  for (const PairChange& c : changes) moved.push_back(c.src);
  std::sort(moved.begin(), moved.end());
  moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
  for (const vid_t u : moved) {
    if (const vid_t deg = before.out_degree(u); deg > 0) {
      const double share = damping * rank[u] / static_cast<double>(deg);
      before.for_each_out(u, [&](vid_t w) { residual[w] -= share; });
    }
    if (const vid_t deg = after.out_degree(u); deg > 0) {
      const double share = damping * rank[u] / static_cast<double>(deg);
      after.for_each_out(u, [&](vid_t w) { residual[w] += share; });
    }
  }
}

}  // namespace optibfs::kernels
