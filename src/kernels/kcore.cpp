#include "kernels/kcore.hpp"

namespace optibfs::kernels {

KCoreKernel::KCoreKernel(const CsrGraph& g, const BFSOptions& opts,
                         bool use_rmw, TeamHandle team)
    : g_(g),
      use_rmw_(use_rmw),
      max_rounds_(opts.kernel_max_rounds),
      sub_(g, opts, /*undirected_view=*/true, std::move(team)) {}

void KCoreKernel::run(KernelResult& out) {
  const vid_t n = sub_.n();
  deg_.assign(n, 0);
  dead_.assign(n, 0);
  core_.assign(n, 0);
  sub_.reset_counters();
  for (vid_t v = 0; v < n; ++v) deg_[v] = sub_.degree(v);

  int rounds = 0;

  sub_.parallel([&](int tid) {
    std::uint64_t* c = sub_.ctr(tid);
    // alive / k / done evolve identically on every thread: they only
    // change from reduce_sum results, which all threads share.
    std::uint64_t alive = n;
    std::uint32_t k = 0;
    int local_rounds = 0;
    bool done = n == 0;
    sub_.barrier(tid);  // publish the serial init

    while (!done) {
      // Peel passes at level k until one comes up empty.
      for (;;) {
        std::uint64_t peeled = 0;
        sub_.for_owned(tid, [&](vid_t v) {
          if (dead_[v] != 0) return;  // dead_ is owner-written
          if (rlx_load(deg_[v]) > k) return;
          dead_[v] = 1;
          core_[v] = k;
          ++peeled;
          sub_.for_neighbors(v, [&](vid_t w) {
            if (use_rmw_) {
              ++c[telemetry::kKernelRmwOps];
              std::atomic_ref<vid_t>(deg_[w]).fetch_sub(
                  1, std::memory_order_relaxed);
            } else {
              // Optimistic decrement: a concurrent peeler of another
              // neighbor of w can overwrite this store, leaving deg_
              // too high. The recount pass repairs it.
              rlx_store(deg_[w], rlx_load(deg_[w]) - 1);
            }
          });
        });
        ++local_rounds;
        if (tid == 0) ++c[telemetry::kKernelRounds];
        const std::uint64_t total = sub_.reduce_sum(tid, peeled);
        alive -= total;
        if (alive == 0 ||
            (max_rounds_ > 0 && local_rounds >= max_rounds_)) {
          done = true;
          break;
        }
        if (total == 0) break;
      }
      if (done) break;

      if (!use_rmw_) {
        // Quiescent recount: dead_ and the alive set are stable after
        // the barrier inside reduce_sum, so an owner can recompute
        // each alive vertex's exact degree and expose what the lost
        // decrements hid. A clean recount proves level k is exhausted.
        std::uint64_t fixes = 0;
        if (tid == 0) ++c[telemetry::kKernelRepairPasses];
        sub_.for_owned(tid, [&](vid_t v) {
          if (dead_[v] != 0) return;
          vid_t exact = 0;
          sub_.for_neighbors(v, [&](vid_t w) { exact += dead_[w] == 0; });
          if (exact < rlx_load(deg_[v])) {
            rlx_store(deg_[v], exact);
            if (exact <= k) ++fixes;
          }
        });
        c[telemetry::kKernelRepairFixes] += fixes;
        if (sub_.reduce_sum(tid, fixes) > 0) continue;  // re-peel at k
      }
      ++k;
    }
    if (tid == 0) rounds = local_rounds;
  });

  out.name = name();
  out.rounds = rounds;
  out.labels.clear();
  out.core.assign(n, 0);
  for (vid_t v = 0; v < n; ++v) out.core[g_.to_original(v)] = core_[v];
  out.rank.clear();
  out.residual.clear();
  out.counters = sub_.counters();
}

}  // namespace optibfs::kernels
