#include "service/kernel_memo.hpp"

#include <algorithm>

#include "kernels/kernel_registry.hpp"

namespace optibfs {

SharedKernelMemo::Access SharedKernelMemo::ensure(bool need_components,
                                                  bool need_core,
                                                  bool need_rank,
                                                  const ViewFn& view,
                                                  const BFSOptions& opts,
                                                  ThreadTeam& team) {
  Access access;
  std::lock_guard lock(mutex_);
  access.components_hit = have_components_;
  access.core_hit = have_core_;
  access.rank_hit = have_rank_;
  if ((!need_components || have_components_) && (!need_core || have_core_) &&
      (!need_rank || have_rank_)) {
    return access;
  }
  // Materialize the graph view once for every missing flavor. Holding
  // the mutex across the runs is the sharing mechanism: a second
  // replica's ensure() for the same flavor blocks here and wakes to a
  // filled memo instead of its own kernel run.
  const std::shared_ptr<const CsrGraph> graph = view();
  if (need_components && !have_components_) {
    kernels::KernelResult out;
    kernels::make_kernel("CC", *graph, opts, team)->run(out);
    components_ = std::move(out.labels);
    size_by_label_.assign(components_.size(), 0);
    for (const vid_t label : components_) ++size_by_label_[label];
    have_components_ = true;
    ++access.recomputes;
  }
  if (need_core && !have_core_) {
    kernels::KernelResult out;
    kernels::make_kernel("KCORE", *graph, opts, team)->run(out);
    core_ = std::move(out.core);
    have_core_ = true;
    ++access.recomputes;
  }
  if (need_rank && !have_rank_) {
    kernels::KernelResult out;
    kernels::make_kernel("PRDELTA", *graph, opts, team)->run(out);
    rank_sorted_.clear();
    rank_sorted_.reserve(out.rank.size());
    for (vid_t v = 0; v < static_cast<vid_t>(out.rank.size()); ++v) {
      rank_sorted_.emplace_back(v, out.rank[v]);
    }
    std::sort(rank_sorted_.begin(), rank_sorted_.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    have_rank_ = true;
    ++access.recomputes;
  }
  return access;
}

}  // namespace optibfs
