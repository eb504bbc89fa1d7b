// Replica-aware per-version kernel-query memo (DESIGN.md §4.6, §11.5).
//
// Kernel-typed queries (components-of / core-number / rank-topk) are
// answered from whole-graph kernel results that are expensive relative
// to any single answer, so the serving core memoizes one result per
// kernel flavor per graph version: each published TenantEpoch holds
// one, and every replica serving that version calls ensure(). The
// first caller fills the missing flavors while holding the memo mutex;
// later callers for the same flavor block on that mutex and find the
// result filled — one fill total, N sharers. The mutex is a documented
// exemption from the no-locks discipline (DESIGN.md §4.7 census): it
// guards a cold memoization path, never a traversal hot path, and the
// alternative — N replicas optimistically recomputing identical
// whole-graph kernels — wastes exactly the work the memo exists to
// save.
//
// A memo does not start empty-handed. successor() links a new
// version's memo to its predecessor's (with the predecessor's snapshot
// and the batch between them), and a fill carries the newest earlier
// answer across the batches instead of recomputing (kernels/carry.hpp:
// CC relabels and bounded searches, the KCORE traversal algorithm,
// PRDELTA residual correction plus seeded push rounds). A flavor
// recomputes from the initial state only when nothing behind it holds
// the flavor, the chain is past kMaxCarryChain, or the damage is past
// kMaxCarriedChanges or the carry's edge budget. Carries copy the
// predecessor's state, never mutate it: claims still serving that
// version read it.
//
// Filled flavors are immutable for the memo's lifetime (a fill builds
// into fresh arrays and sets its flag last, so a throwing fill
// publishes nothing), so accessors may be read without the lock by any
// thread that observed ensure() return for that flavor — the mutex
// release/acquire pair inside ensure() provides the happens-before
// edge.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/thread_team.hpp"

namespace optibfs {

class SharedKernelMemo {
 public:
  /// Versions one link chain may span. Each link pins its
  /// predecessor's snapshot — a private copy of that version's delta
  /// overlay — until a fill drops it, so a tenant whose kernel queries
  /// stop while updates go on holds at most this many overlays. Past
  /// it, the next memo starts unlinked and its first fill recomputes.
  static constexpr int kMaxCarryChain = 8;
  /// Directed pairs whose multiplicity a carry may see change. A carry
  /// pays per changed pair (a search, a traversal, a residual
  /// correction); past this many, the versions differ by a bulk load,
  /// not a batch, and a from-scratch run is the cheaper path.
  static constexpr std::size_t kMaxCarriedChanges = 4096;

  /// What one ensure() observed: per-flavor hit = the result existed
  /// before this call (some earlier caller — possibly another replica —
  /// paid for it); the other fields count the fills this call made.
  struct Access {
    bool components_hit = false;
    bool core_hit = false;
    bool rank_hit = false;
    std::uint64_t recomputes = 0;  ///< filled from the initial state
    std::uint64_t carries = 0;     ///< carried from an earlier version
    /// Carries that fell back (past a bound); counted in recomputes too.
    std::uint64_t carry_fallbacks = 0;
    /// The fills this call ran, in order, for the caller's
    /// kEvKernelFill spans (the memo is shared by replicas, so it
    /// records into no trace itself). arg: bit 0 = carried (1) or
    /// recomputed (0); bits 1+ = the flavor.
    struct Fill {
      std::chrono::steady_clock::time_point start;
      std::chrono::steady_clock::time_point end;
      std::uint64_t arg = 0;
    };
    std::array<Fill, 3> fills{};  ///< one per flavor at most
    int num_fills = 0;
  };

  /// Lazily materializes the graph view the kernel runs use (base CSR,
  /// or CSR ∪ delta flattened). Called at most once per ensure(), and
  /// only when some flavor needs a kernel run.
  using ViewFn = std::function<std::shared_ptr<const CsrGraph>()>;

  SharedKernelMemo() = default;

  /// The memo for the version that `summary` made from `prev`'s (whose
  /// edge set `prev_snapshot` is). Linked to `prev` when prev saw a
  /// kernel query or is linked itself, and the chain stays within
  /// kMaxCarryChain; otherwise unlinked. Lock-free and O(batch): the
  /// mutator calls it while a replica may be filling `prev`.
  static std::shared_ptr<SharedKernelMemo> successor(
      const std::shared_ptr<SharedKernelMemo>& prev,
      const GraphSnapshot& prev_snapshot, const BatchSummary& summary);

  /// Fills every requested-and-missing flavor for the edge set
  /// `snapshot`, blocking concurrent callers on the same memo (they
  /// share the one fill instead of repeating it). Kernel runs go on the
  /// caller's `team` (a serving replica's); `opts` configures them
  /// (prefetch_distance, pr_damping, pr_epsilon). Each fill is timed
  /// into Access::fills.
  Access ensure(bool need_components, bool need_core, bool need_rank,
                const GraphSnapshot& snapshot, const ViewFn& view,
                const BFSOptions& opts, ThreadTeam& team);

  // Accessors, valid for flavors a completed ensure() requested.
  const std::vector<vid_t>& components() const { return components_; }
  /// Component vertex count, indexed by canonical label (only entries
  /// that are some vertex's label are nonzero).
  const std::vector<vid_t>& size_by_label() const {
    return size_by_label_;
  }
  const std::vector<std::uint32_t>& core() const { return core_; }
  /// The k highest-ranked (vertex, rank) pairs by descending PageRank,
  /// ties by ascending id (all of them when k exceeds the vertex count).
  std::vector<std::pair<vid_t, double>> top_ranked(std::size_t k) const;

 private:
  enum Flavor { kComponents, kCore, kRank, kFlavors };

  /// The predecessor this memo's version was made from.
  struct Link {
    std::shared_ptr<SharedKernelMemo> prev;
    GraphSnapshot prev_snapshot;
    BatchSummary summary;  ///< the batch from prev's version to this one
  };
  /// Where one flavor can be carried from: the newest earlier memo that
  /// holds it, that memo's edge set, and every pair touched since.
  struct Source {
    std::shared_ptr<SharedKernelMemo> memo;
    GraphSnapshot snapshot;
    std::vector<std::pair<vid_t, vid_t>> touched;
  };

  using Sources = std::array<std::optional<Source>, kFlavors>;
  using GraphFn = std::function<const CsrGraph&()>;

  /// Walks the link chain back to the newest memo holding `flavor`.
  /// Requires mutex_; takes each predecessor's mutex in turn (always
  /// newer before older, so two walks never deadlock).
  std::optional<Source> find_source(Flavor flavor) const;
  /// Drops the link once no flavor still missing here has a source
  /// behind it, so the predecessors' state and snapshots can go.
  void release_link(const Sources& sources);
  /// One fill: carried from sources[flavor] when it is set and the
  /// damage is within bounds, else recomputed on `graph()`. Consumes
  /// sources[flavor]; returns whether it carried.
  bool fill(Flavor flavor, Sources& sources, const GraphSnapshot& snapshot,
            const GraphFn& graph, const BFSOptions& opts, ThreadTeam& team,
            Access& access);
  /// The carry half of fill(); false when past a bound.
  bool carry(Flavor flavor, Source source, Sources& sources,
             const GraphSnapshot& snapshot, const GraphFn& graph,
             const BFSOptions& opts, ThreadTeam& team);
  void publish_components(std::vector<vid_t> labels, std::vector<vid_t> sizes);
  void publish_core(std::vector<std::uint32_t> core);
  void publish_rank(std::vector<double> rank, std::vector<double> residual);

  std::mutex mutex_;
  std::optional<Link> link_;  ///< dropped once nothing behind it is needed
  /// Set by the first ensure() and by linking: the mutator reads it to
  /// decide whether a successor links here, without taking mutex_.
  std::atomic<bool> carry_source_{false};
  std::atomic<int> chain_{0};  ///< links behind this memo (0 = none)
  bool have_[kFlavors] = {};
  std::vector<vid_t> components_;
  std::vector<vid_t> size_by_label_;
  std::vector<std::uint32_t> core_;
  std::vector<double> rank_;      ///< original ids; carried forward
  std::vector<double> residual_;  ///< original ids; carried forward
};

}  // namespace optibfs
