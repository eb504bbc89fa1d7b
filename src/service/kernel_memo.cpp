#include "service/kernel_memo.hpp"

#include <algorithm>
#include <utility>

#include "kernels/carry.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/pagerank_delta.hpp"

namespace optibfs {

std::shared_ptr<SharedKernelMemo> SharedKernelMemo::successor(
    const std::shared_ptr<SharedKernelMemo>& prev,
    const GraphSnapshot& prev_snapshot, const BatchSummary& summary) {
  auto next = std::make_shared<SharedKernelMemo>();
  // Relaxed reads: they only choose whether to link. A fill racing with
  // this read at worst costs the successor one recompute.
  if (!prev || !prev->carry_source_.load(std::memory_order_relaxed)) {
    return next;
  }
  const int chain = prev->chain_.load(std::memory_order_relaxed) + 1;
  if (chain > kMaxCarryChain) return next;
  next->link_ = Link{prev, prev_snapshot, summary};
  next->chain_.store(chain, std::memory_order_relaxed);
  next->carry_source_.store(true, std::memory_order_relaxed);
  return next;
}

std::optional<SharedKernelMemo::Source> SharedKernelMemo::find_source(
    Flavor flavor) const {
  Source source;
  std::optional<Link> link = link_;
  while (link) {
    for (const auto* pairs : {&link->summary.inserts, &link->summary.deletes}) {
      source.touched.insert(source.touched.end(), pairs->begin(), pairs->end());
    }
    const std::shared_ptr<SharedKernelMemo> prev = link->prev;
    std::optional<Link> up;
    {
      std::lock_guard lock(prev->mutex_);
      if (prev->have_[flavor]) {
        source.memo = prev;
        source.snapshot = std::move(link->prev_snapshot);
        return source;
      }
      up = prev->link_;
    }
    link = std::move(up);
  }
  return std::nullopt;
}

SharedKernelMemo::Access SharedKernelMemo::ensure(
    bool need_components, bool need_core, bool need_rank,
    const GraphSnapshot& snapshot, const ViewFn& view, const BFSOptions& opts,
    ThreadTeam& team) {
  Access access;
  static_assert(std::tuple_size_v<decltype(access.fills)> == kFlavors);
  std::lock_guard lock(mutex_);
  carry_source_.store(true, std::memory_order_relaxed);
  access.components_hit = have_[kComponents];
  access.core_hit = have_[kCore];
  access.rank_hit = have_[kRank];
  const bool need[kFlavors] = {need_components, need_core, need_rank};
  bool missing = false;
  for (int f = 0; f < kFlavors; ++f) missing |= need[f] && !have_[f];
  if (!missing) return access;

  // Holding the mutex across the fills is the sharing mechanism: a
  // second replica's ensure() for the same flavor blocks here and wakes
  // to a filled memo instead of its own run. The graph view is
  // materialized at most once, and only if some fill runs a kernel.
  std::shared_ptr<const CsrGraph> materialized;
  const auto graph = [&]() -> const CsrGraph& {
    if (!materialized) materialized = view();
    return *materialized;
  };
  Sources sources;
  for (int f = 0; f < kFlavors; ++f) {
    if (!have_[f]) sources[f] = find_source(static_cast<Flavor>(f));
  }
  for (int f = 0; f < kFlavors; ++f) {
    if (!need[f] || have_[f]) continue;
    Access::Fill& timed = access.fills[static_cast<std::size_t>(
        access.num_fills++)];
    timed.start = std::chrono::steady_clock::now();
    const bool carried = fill(static_cast<Flavor>(f), sources, snapshot, graph,
                              opts, team, access);
    timed.end = std::chrono::steady_clock::now();
    timed.arg = static_cast<std::uint64_t>(f) * 2 + (carried ? 1 : 0);
  }
  release_link(sources);
  return access;
}

void SharedKernelMemo::release_link(const Sources& sources) {
  for (int f = 0; f < kFlavors; ++f) {
    if (!have_[f] && sources[f]) return;
  }
  link_.reset();
  chain_.store(0, std::memory_order_relaxed);
}

bool SharedKernelMemo::fill(Flavor flavor, Sources& sources,
                            const GraphSnapshot& snapshot, const GraphFn& graph,
                            const BFSOptions& opts, ThreadTeam& team,
                            Access& access) {
  if (std::optional<Source> source = std::exchange(sources[flavor], std::nullopt)) {
    if (carry(flavor, std::move(*source), sources, snapshot, graph, opts, team)) {
      ++access.carries;
      return true;
    }
    ++access.carry_fallbacks;
  }
  release_link(sources);
  static const char* const kNames[kFlavors] = {"CC", "KCORE", "PRDELTA"};
  kernels::KernelResult out;
  kernels::make_kernel(kNames[flavor], graph(), opts, team)->run(out);
  switch (flavor) {
    case kComponents: {
      std::vector<vid_t> sizes(out.labels.size(), 0);
      for (const vid_t label : out.labels) ++sizes[label];
      publish_components(std::move(out.labels), std::move(sizes));
      break;
    }
    case kCore:
      publish_core(std::move(out.core));
      break;
    case kRank:
      publish_rank(std::move(out.rank), std::move(out.residual));
      break;
    case kFlavors:
      break;
  }
  ++access.recomputes;
  return false;
}

bool SharedKernelMemo::carry(Flavor flavor, Source source, Sources& sources,
                             const GraphSnapshot& snapshot, const GraphFn& graph,
                             const BFSOptions& opts, ThreadTeam& team) {
  const GraphSnapshot before = std::move(source.snapshot);
  const std::vector<kernels::PairChange> changes =
      kernels::net_changes(before, snapshot, source.touched);
  if (changes.size() > kMaxCarriedChanges) return false;
  const SharedKernelMemo& from = *source.memo;
  // Copy what this flavor carries, then let the predecessor go: once no
  // epoch holds it either, its whole state is freed before this fill
  // allocates its own (the flatten included).
  const auto let_go = [&] {
    source.memo.reset();
    release_link(sources);
  };
  switch (flavor) {
    case kComponents: {
      std::vector<vid_t> labels = from.components_;
      std::vector<vid_t> sizes = from.size_by_label_;
      let_go();
      if (!kernels::carry_components(before, snapshot, changes, labels, sizes)) {
        return false;
      }
      publish_components(std::move(labels), std::move(sizes));
      return true;
    }
    case kCore: {
      std::vector<std::uint32_t> core = from.core_;
      let_go();
      if (!kernels::carry_core(snapshot, changes, core)) return false;
      publish_core(std::move(core));
      return true;
    }
    case kRank: {
      std::vector<double> rank = from.rank_;
      std::vector<double> residual = from.residual_;
      let_go();
      kernels::carry_residual(before, snapshot, changes, opts.pr_damping, rank,
                              residual);
      kernels::PageRankDeltaKernel kernel(graph(), opts, /*use_rmw=*/false,
                                          TeamHandle(team));
      kernels::KernelResult out;
      kernel.run_from(std::move(rank), std::move(residual), out);
      publish_rank(std::move(out.rank), std::move(out.residual));
      return true;
    }
    case kFlavors:
      break;
  }
  return false;
}

void SharedKernelMemo::publish_components(std::vector<vid_t> labels,
                                          std::vector<vid_t> sizes) {
  components_ = std::move(labels);
  size_by_label_ = std::move(sizes);
  have_[kComponents] = true;
}

void SharedKernelMemo::publish_core(std::vector<std::uint32_t> core) {
  core_ = std::move(core);
  have_[kCore] = true;
}

void SharedKernelMemo::publish_rank(std::vector<double> rank,
                                    std::vector<double> residual) {
  rank_ = std::move(rank);
  residual_ = std::move(residual);
  have_[kRank] = true;
}

std::vector<std::pair<vid_t, double>> SharedKernelMemo::top_ranked(
    std::size_t k) const {
  std::vector<vid_t> order(rank_.size());
  for (vid_t v = 0; v < static_cast<vid_t>(order.size()); ++v) order[v] = v;
  k = std::min(k, order.size());
  const auto higher = [&](vid_t a, vid_t b) {
    if (rank_[a] != rank_[b]) return rank_[a] > rank_[b];
    return a < b;
  };
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), higher);
  std::vector<std::pair<vid_t, double>> top;
  top.reserve(k);
  for (std::size_t i = 0; i < k; ++i) top.emplace_back(order[i], rank_[order[i]]);
  return top;
}

}  // namespace optibfs
