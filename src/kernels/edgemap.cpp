#include "kernels/edgemap.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace optibfs::kernels {

KernelSubstrate::KernelSubstrate(const CsrGraph& g, const BFSOptions& opts,
                                 bool undirected_view, TeamHandle team)
    : g_(&g),
      tr_(undirected_view ? &g.transpose() : nullptr),
      n_(g.num_vertices()),
      p_(team.width()),
      max_rounds_(opts.kernel_max_rounds),
      counters_(p_),
      barrier_(p_),
      team_(std::move(team)) {
  degree_.resize(n_);
  for (vid_t v = 0; v < n_; ++v) {
    vid_t d = g_->out_degree(v);
    if (tr_ != nullptr) d += tr_->out_degree(v);
    degree_[v] = d;
  }

  // Degree-balanced owned slices: cut where the cumulative (degree + 1)
  // mass crosses each thread's share, so owner-computes passes over
  // skewed graphs don't hand one thread all the hub edges.
  owned_.assign(static_cast<std::size_t>(p_) + 1, n_);
  owned_[0] = 0;
  std::uint64_t total = n_;  // +1 per vertex: empty vertices still cost
  for (vid_t v = 0; v < n_; ++v) total += degree_[v];
  std::uint64_t acc = 0;
  int cut = 1;
  for (vid_t v = 0; v < n_ && cut < p_; ++v) {
    acc += 1 + degree_[v];
    while (cut < p_ &&
           acc >= total * static_cast<std::uint64_t>(cut) /
                      static_cast<std::uint64_t>(p_)) {
      owned_[static_cast<std::size_t>(cut)] = v + 1;
      ++cut;
    }
  }

  act_.resize(static_cast<std::size_t>(p_));
  vote_.resize(static_cast<std::size_t>(p_));
  chunk_.assign(static_cast<std::size_t>(p_) + 1, 0);
  flags_.assign(n_, 0);

  // Place the stamp array (DESIGN.md §13): raw unfaulted allocation,
  // then each worker zeroes its own degree-balanced slice so the pages
  // fault on the owning thread's socket (and, with pin_threads, stay
  // there for the lifetime of the substrate).
  stamp_.grow(n_, opts.huge_pages);
  team_.run([this](int tid) {
    const auto [b, e] = owned(tid);
    if (b < e) {
      std::memset(static_cast<void*>(stamp_.data() + b), 0,
                  static_cast<std::size_t>(e - b) * sizeof(stamp_t));
    }
  });

  prefetch_dist_ = opts.prefetch_distance > 0 ? opts.prefetch_distance : 0;
  mmap_backed_ = g.storage_kind() == storage::StorageKind::kMmap;
  if (opts.storage_budget_bytes != 0) {
    g.set_storage_budget(opts.storage_budget_bytes);
  }
}

void KernelSubstrate::advise_dense_round() {
  if (!mmap_backed_) return;
  for (int t = 0; t < p_; ++t) {
    g_->advise_out_interval_async(owned_[static_cast<std::size_t>(t)],
                                  owned_[static_cast<std::size_t>(t) + 1]);
  }
}

void KernelSubstrate::seed_all() {
  all_active_ = true;
  dense_ = true;
  frontier_entries_ = n_;
  round_ = 0;
  advise_dense_round();
}

void KernelSubstrate::seed(vid_t v) {
  frontier_.clear();
  frontier_.push_back(v);
  all_active_ = false;
  dense_ = false;
  chunk_.assign(chunk_.size(), frontier_.size());
  chunk_[0] = 0;
  frontier_entries_ = 1;
  round_ = 0;
}

void KernelSubstrate::advance_serial(int tid) {
  // Single-threaded barrier window: every worker has arrived, so the
  // per-thread activation lists and all kernel state are quiescent.
  // Retire the old round's dense bitmap by walking its gathered list
  // (O(active) — the list covers every set flag, duplicates included).
  if (flags_set_) {
    for (vid_t v : frontier_) flags_[v] = 0;
    flags_set_ = false;
  }
  all_active_ = false;

  // Gather the next round's activations.
  frontier_.clear();
  for (ActList& a : act_) {
    frontier_.insert(frontier_.end(), a.list.begin(), a.list.end());
    a.list.clear();
  }
  ++next_stamp_;  // retire every activation stamp at once (no wipe)
  frontier_entries_ = frontier_.size();
  ++round_;
  ++ctr(tid)[telemetry::kKernelRounds];
  if (max_rounds_ > 0 && round_ >= max_rounds_) frontier_entries_ = 0;
  if (frontier_entries_ == 0) return;

  dense_ = frontier_.size() >= n_ / kDenseDivisor;
  if (dense_) {
    for (vid_t v : frontier_) flags_[v] = 1;
    flags_set_ = true;
    advise_dense_round();
    return;
  }

  // Sparse: chunk the gathered list by a (degree + 1) budget so one
  // hub-heavy chunk doesn't serialize the round.
  std::uint64_t total = frontier_.size();
  for (vid_t v : frontier_) total += degree_[v];
  std::uint64_t acc = 0;
  int cut = 1;
  chunk_[0] = 0;
  for (std::size_t i = 0; i < frontier_.size() && cut < p_; ++i) {
    acc += 1 + degree_[frontier_[i]];
    while (cut < p_ &&
           acc >= total * static_cast<std::uint64_t>(cut) /
                      static_cast<std::uint64_t>(p_)) {
      chunk_[static_cast<std::size_t>(cut)] = i + 1;
      ++cut;
    }
  }
  for (; cut <= p_; ++cut)
    chunk_[static_cast<std::size_t>(cut)] = frontier_.size();
}

}  // namespace optibfs::kernels
