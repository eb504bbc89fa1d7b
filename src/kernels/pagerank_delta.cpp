#include "kernels/pagerank_delta.hpp"

#include <cmath>

namespace optibfs::kernels {

namespace {

/// CAS-loop add for the RMW ablation (atomic_ref<double> has no
/// fetch_add). Counts every RMW issued, retries included.
inline void atomic_add(double& slot, double x, std::uint64_t* c) {
  std::atomic_ref<double> ref(slot);
  double cur = ref.load(std::memory_order_relaxed);
  do {
    ++c[telemetry::kKernelRmwOps];
  } while (!ref.compare_exchange_weak(cur, cur + x,
                                      std::memory_order_relaxed));
}

}  // namespace

PageRankDeltaKernel::PageRankDeltaKernel(const CsrGraph& g,
                                         const BFSOptions& opts, bool use_rmw,
                                         TeamHandle team)
    : g_(g),
      use_rmw_(use_rmw),
      damping_(opts.pr_damping),
      epsilon_(opts.pr_epsilon),
      max_rounds_(opts.kernel_max_rounds),
      sub_(g, opts, /*undirected_view=*/false, std::move(team)) {}

void PageRankDeltaKernel::run(KernelResult& out) {
  rank_.assign(sub_.n(), 0.0);
  residual_.assign(sub_.n(), 1.0 - damping_);
  push(out);
}

void PageRankDeltaKernel::run_from(std::vector<double> rank,
                                   std::vector<double> residual,
                                   KernelResult& out) {
  if (!g_.is_reordered()) {
    rank_ = std::move(rank);
    residual_ = std::move(residual);
  } else {
    const vid_t n = sub_.n();
    rank_.resize(n);
    residual_.resize(n);
    for (vid_t v = 0; v < n; ++v) {
      rank_[g_.to_internal(v)] = rank[v];
      residual_[g_.to_internal(v)] = residual[v];
    }
  }
  push(out);
}

void PageRankDeltaKernel::push(KernelResult& out) {
  const vid_t n = sub_.n();
  const int p = sub_.num_threads();
  sub_.reset_counters();
  if (!use_rmw_) {
    slab_.resize(static_cast<std::size_t>(p));
    for (auto& s : slab_) s.assign(n, 0.0);
  }

  int rounds = 0;

  sub_.parallel([&](int tid) {
    std::uint64_t* c = sub_.ctr(tid);
    double* my_slab = use_rmw_ ? nullptr : slab_[static_cast<std::size_t>(tid)].data();
    const auto [own_b, own_e] = sub_.owned(tid);
    int local_rounds = 0;
    sub_.barrier(tid);  // publish the serial init

    for (;;) {
      // Push phase: owners drain their own residuals. In the slab
      // variant every store below lands in thread-private memory or
      // owner-only arrays — no shared-write exists at all: a share for
      // a vertex in the pusher's own slice goes straight into its
      // residual (the pusher is that cell's only writer until the
      // barrier), so it can be pushed on later this same round.
      std::uint64_t pushed = 0;
      sub_.for_owned(tid, [&](vid_t v) {
        double r;
        if (use_rmw_) {
          // Peek first so sub-threshold residuals stay in place; mass
          // landing between the peek and the exchange is still drained.
          if (std::abs(std::atomic_ref<double>(residual_[v])
                               .load(std::memory_order_relaxed)) <= epsilon_)
            return;
          ++c[telemetry::kKernelRmwOps];
          r = std::atomic_ref<double>(residual_[v])
                  .exchange(0.0, std::memory_order_relaxed);
        } else {
          r = residual_[v];
          if (std::abs(r) <= epsilon_) return;
          residual_[v] = 0.0;
        }
        rank_[v] += r;
        ++pushed;
        const auto nbrs = sub_.out_nbrs(v);
        if (nbrs.empty()) return;  // dangling: mass dropped
        const double share =
            damping_ * r / static_cast<double>(nbrs.size());
        for (vid_t w : nbrs) {
          if (use_rmw_)
            atomic_add(residual_[w], share, c);
          else if (w >= own_b && w < own_e)
            residual_[w] += share;
          else
            my_slab[w] += share;
        }
      });
      ++local_rounds;
      if (tid == 0) ++c[telemetry::kKernelRounds];
      const std::uint64_t total = sub_.reduce_sum(tid, pushed);
      if (total == 0 ||
          (max_rounds_ > 0 && local_rounds >= max_rounds_))
        break;

      if (!use_rmw_) {
        // Barrier-window reduction: each owner folds its vertex slice
        // across every other thread's slab (its own never holds a share
        // for its own slice) and re-zeroes the cells it read.
        // reduce_sum's closing barrier separates this phase from the
        // pushes; the barrier below separates it from the next round's
        // pushes — every cross-thread slab access is quiescent.
        for (int t = 0; t < p; ++t) {
          if (t == tid) continue;
          double* s = slab_[static_cast<std::size_t>(t)].data();
          for (vid_t v = own_b; v < own_e; ++v) {
            residual_[v] += s[v];
            s[v] = 0.0;
          }
        }
        sub_.barrier(tid);
      }
    }
    if (tid == 0) rounds = local_rounds;
  });

  out.name = name();
  out.rounds = rounds;
  out.labels.clear();
  out.core.clear();
  if (!g_.is_reordered()) {
    out.rank = std::move(rank_);
    out.residual = std::move(residual_);
  } else {
    out.rank.assign(n, 0.0);
    out.residual.assign(n, 0.0);
    for (vid_t v = 0; v < n; ++v) {
      out.rank[g_.to_original(v)] = rank_[v];
      out.residual[g_.to_original(v)] = residual_[v];
    }
  }
  out.counters = sub_.counters();
}

}  // namespace optibfs::kernels
