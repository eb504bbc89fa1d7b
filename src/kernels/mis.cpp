#include "kernels/mis.hpp"

#include "graph/graph_props.hpp"

namespace optibfs::kernels {

namespace {
constexpr unsigned char kUndecided = 0;
constexpr unsigned char kIn = 1;
constexpr unsigned char kOut = 2;
}  // namespace

MisKernel::MisKernel(const CsrGraph& g, const BFSOptions& opts, bool use_rmw)
    : g_(g), use_rmw_(use_rmw), sub_(g, opts, /*undirected_view=*/true) {
  // Fixed random priorities; ties break on id, so (prio, id) totally
  // orders the vertices. Self-loops are ignored throughout (a vertex
  // is never its own conflict) — the validator agrees.
  prio_.resize(g.num_vertices());
  for (vid_t v = 0; v < g.num_vertices(); ++v)
    prio_[v] = fingerprint_mix(opts.seed, v);
}

void MisKernel::run(KernelResult& out) {
  const vid_t n = sub_.n();
  status_.assign(n, kUndecided);
  sub_.reset_counters();
  sub_.seed_all();

  // before(a, b): a precedes b in the (prio, id) total order.
  auto before = [&](vid_t a, vid_t b) {
    return prio_[a] != prio_[b] ? prio_[a] < prio_[b] : a < b;
  };
  // Any neighbor of v (self-loops skipped) currently reading as in?
  auto sees_in = [&](vid_t v) {
    for (vid_t w : sub_.out_nbrs(v))
      if (w != v && rlx_load(status_[w]) == kIn) return true;
    for (vid_t w : sub_.in_nbrs(v))
      if (w != v && rlx_load(status_[w]) == kIn) return true;
    return false;
  };

  sub_.parallel([&](int tid) {
    std::uint64_t* c = sub_.ctr(tid);

    // The in-round demotion: the suite's one documented CAS exemption.
    // Up to two processors (and duplicate sparse entries) can spot the
    // same conflict edge; whoever wins the 1 -> 0 CAS owns the
    // exactly-once reactivation of the victim.
    auto demote = [&](vid_t loser) {
      unsigned char expect = kIn;
      ++c[telemetry::kKernelRmwOps];
      if (std::atomic_ref<unsigned char>(status_[loser])
              .compare_exchange_strong(expect, kUndecided,
                                       std::memory_order_relaxed)) {
        ++c[telemetry::kKernelConflictDemotes];
        sub_.activate(tid, loser);
      }
    };

    std::uint64_t remaining = n;
    while (remaining != 0) {
      sub_.for_active(tid, [&](vid_t u) {
        if (rlx_load(status_[u]) != kUndecided) return;  // stale/dup entry
        if (use_rmw_) {
          // Classic Luby: enter only behind the priority gate, every
          // transition a CAS. A stale undecided read of a decided
          // neighbor just delays u a round.
          bool any_in = false, is_min = true;
          auto scan = [&](std::span<const vid_t> nbrs) {
            for (vid_t w : nbrs) {
              if (w == u) continue;
              const unsigned char sw = rlx_load(status_[w]);
              if (sw == kIn) {
                any_in = true;
                return;
              }
              if (sw == kUndecided && before(w, u)) is_min = false;
            }
          };
          scan(sub_.out_nbrs(u));
          if (!any_in) scan(sub_.in_nbrs(u));
          if (any_in || is_min) {
            unsigned char expect = kUndecided;
            ++c[telemetry::kKernelRmwOps];
            std::atomic_ref<unsigned char>(status_[u])
                .compare_exchange_strong(expect, any_in ? kOut : kIn,
                                         std::memory_order_relaxed);
          } else {
            sub_.activate(tid, u);  // undecided: try again next round
          }
          return;
        }

        // Optimistic: decide NOW on whatever the relaxed reads show.
        if (sees_in(u)) {
          rlx_store(status_[u], kOut);  // may be premature — verify repairs
          return;
        }
        rlx_store(status_[u], kIn);  // speculate
        // Conflict re-check: demote the (prio, id) loser of any
        // simultaneous adjacent entry this scan can still see.
        auto recheck = [&](std::span<const vid_t> nbrs) {
          for (vid_t w : nbrs) {
            if (w == u) continue;
            if (rlx_load(status_[w]) != kIn) continue;
            const vid_t loser = before(u, w) ? w : u;
            demote(loser);
            if (loser == u) return false;  // u lost; stop re-checking
          }
          return true;
        };
        if (recheck(sub_.out_nbrs(u))) recheck(sub_.in_nbrs(u));
      });
      remaining = sub_.advance(tid);

      if (remaining == 0 && !use_rmw_) {
        // Quiescent verify: store buffering can let two adjacent
        // entrants both miss each other's re-check (the SB litmus), a
        // premature out can outlive its justification, and a demoted
        // vertex leaves undecideds behind. Owners repair all three
        // exactly; a clean pass certifies a maximal independent set.
        std::uint64_t fixes = 0;
        if (tid == 0) ++c[telemetry::kKernelRepairPasses];
        sub_.for_owned(tid, [&](vid_t v) {
          const unsigned char s = status_[v];
          if (s == kIn) {
            bool lost = false;
            auto beaten = [&](std::span<const vid_t> nbrs) {
              for (vid_t w : nbrs)
                if (w != v && rlx_load(status_[w]) == kIn && before(w, v)) {
                  lost = true;
                  return;
                }
            };
            beaten(sub_.out_nbrs(v));
            if (!lost) beaten(sub_.in_nbrs(v));
            if (lost) {
              // A repair, counted in fixes: kernel_conflict_demotes
              // counts the in-round CAS demotions only (DESIGN.md §11.2).
              rlx_store(status_[v], kUndecided);
              sub_.activate(tid, v);
              ++fixes;
            }
          } else if (s == kOut) {
            if (!sees_in(v)) {
              rlx_store(status_[v], kUndecided);
              sub_.activate(tid, v);
              ++fixes;
            }
          } else {
            sub_.activate(tid, v);
            ++fixes;
          }
        });
        c[telemetry::kKernelRepairFixes] += fixes;
        remaining = sub_.advance(tid);
      }
    }
  });

  out.name = name();
  out.rounds = sub_.round();
  out.labels.assign(n, 0);
  for (vid_t v = 0; v < n; ++v)
    out.labels[g_.to_original(v)] = status_[v] == kIn ? 1 : 0;
  out.core.clear();
  out.rank.clear();
  out.counters = sub_.counters();
}

}  // namespace optibfs::kernels
