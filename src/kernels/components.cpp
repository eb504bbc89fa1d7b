#include "kernels/components.hpp"

#include <algorithm>

namespace optibfs::kernels {

namespace {

/// CAS-min for the RMW ablation: returns true if we installed `want`.
/// Counts every RMW issued (successful or retried) so the ablation's
/// atomic traffic is auditable.
inline bool cas_min(vid_t& slot, vid_t want, std::uint64_t* c) {
  std::atomic_ref<vid_t> ref(slot);
  vid_t cur = ref.load(std::memory_order_relaxed);
  while (want < cur) {
    ++c[telemetry::kKernelRmwOps];
    if (ref.compare_exchange_weak(cur, want, std::memory_order_relaxed))
      return true;
  }
  return false;
}

}  // namespace

ComponentsKernel::ComponentsKernel(const CsrGraph& g, const BFSOptions& opts,
                                   bool use_cas, TeamHandle team)
    : g_(g),
      use_cas_(use_cas),
      sub_(g, opts, /*undirected_view=*/true, std::move(team)) {}

void ComponentsKernel::run(KernelResult& out) {
  const vid_t n = sub_.n();
  labels_.assign(n, 0);
  sub_.reset_counters();
  sub_.seed_all();

  sub_.parallel([&](int tid) {
    std::uint64_t* c = sub_.ctr(tid);
    sub_.for_owned(tid, [&](vid_t v) { labels_[v] = v; });
    sub_.barrier(tid);  // publish the init before anyone reads a label

    std::uint64_t remaining = n;
    while (remaining != 0) {
      sub_.for_active(tid, [&](vid_t u) {
        vid_t lu = rlx_load(labels_[u]);
        // Short-circuit hook: one hop of pointer jumping. Labels are
        // vertex ids, so labels[lu] is always in range; monotonicity
        // makes a stale hop merely less helpful, never wrong.
        const vid_t ll = rlx_load(labels_[lu]);
        if (ll < lu) {
          lu = ll;
          if (use_cas_)
            cas_min(labels_[u], lu, c);
          else
            rlx_store(labels_[u], lu);
        }
        // Prefetch the label probe `prefetch_distance` neighbors ahead
        // — the same lookahead the BFS engines run over level[].
        sub_.for_neighbors_prefetch(u, labels_.data(), [&](vid_t w) {
          const vid_t lw = rlx_load(labels_[w]);
          if (lu < lw) {
            if (use_cas_) {
              if (cas_min(labels_[w], lu, c)) sub_.activate(tid, w);
            } else {
              // Optimistic: plain store. A concurrent smaller write
              // can be lost here — the verify pass repairs it.
              rlx_store(labels_[w], lu);
              sub_.activate(tid, w);
            }
          } else if (lw < lu) {
            lu = lw;
            if (use_cas_)
              cas_min(labels_[u], lu, c);
            else
              rlx_store(labels_[u], lu);
            sub_.activate(tid, u);
          }
        });
      });
      remaining = sub_.advance(tid);

      if (remaining == 0) {
        // Quiescent verify/repair: owner-computes pull of the exact
        // neighborhood min. Every edge is seen from both endpoints, so
        // a clean pass proves the fixpoint; a fix reactivates and the
        // push rounds resume.
        if (tid == 0) ++c[telemetry::kKernelRepairPasses];
        sub_.for_owned(tid, [&](vid_t v) {
          vid_t best = rlx_load(labels_[v]);
          sub_.for_neighbors_prefetch(v, labels_.data(), [&](vid_t w) {
            best = std::min(best, rlx_load(labels_[w]));
          });
          if (best < rlx_load(labels_[v])) {
            rlx_store(labels_[v], best);
            sub_.activate(tid, v);
            ++c[telemetry::kKernelRepairFixes];
          }
        });
        remaining = sub_.advance(tid);
      }
    }
  });

  // Serial finalize: at the fixpoint each component carries one label
  // (its min internal id). Canonicalize to the min ORIGINAL id so
  // results are reorder-invariant, then emit in original ids.
  std::vector<vid_t> canon(n, kInvalidVertex);
  for (vid_t v = 0; v < n; ++v) {
    const vid_t orig = g_.to_original(v);
    vid_t& slot = canon[labels_[v]];
    slot = std::min(slot, orig);
  }
  out.name = name();
  out.rounds = sub_.round();
  out.labels.assign(n, 0);
  for (vid_t v = 0; v < n; ++v)
    out.labels[g_.to_original(v)] = canon[labels_[v]];
  out.core.clear();
  out.rank.clear();
  out.residual.clear();
  out.counters = sub_.counters();
}

}  // namespace optibfs::kernels
