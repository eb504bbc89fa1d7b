// Replica-aware per-version kernel-query memo (DESIGN.md §4.6, §11).
//
// Kernel-typed queries (components-of / core-number / rank-topk) are
// answered from whole-graph kernel runs that are expensive relative to
// any single answer, so the serving core memoizes one run per kernel
// flavor per graph version: each published TenantEpoch holds one, and
// every replica serving that version calls ensure(). The first caller
// runs the missing kernels while holding the memo mutex; later callers
// for the same flavor block on that mutex and find the result filled —
// one run total, N sharers. The mutex is a documented exemption from
// the no-locks discipline (DESIGN.md §4.7 census): it guards a cold
// memoization path, never a traversal hot path, and the alternative —
// N replicas optimistically recomputing identical whole-graph kernels
// — wastes exactly the work the memo exists to save.
//
// Filled flavors are immutable for the memo's lifetime (a memo belongs
// to one edge set; updates drop the whole object), so accessors may be
// read without the lock by any thread that observed ensure() return
// for that flavor — the mutex release/acquire pair inside ensure()
// provides the happens-before edge.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/bfs_options.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace optibfs {

class SharedKernelMemo {
 public:
  /// What one ensure() observed: per-flavor hit = the result existed
  /// before this call (some earlier caller — possibly another replica —
  /// paid for it); recomputes = kernel runs this call performed.
  struct Access {
    bool components_hit = false;
    bool core_hit = false;
    bool rank_hit = false;
    std::uint64_t recomputes = 0;
  };

  /// Lazily materializes the graph view the kernels run on (base CSR,
  /// or CSR ∪ delta flattened). Called at most once per ensure(), and
  /// only when some requested flavor is actually missing.
  using ViewFn = std::function<std::shared_ptr<const CsrGraph>()>;

  /// Fills every requested-and-missing flavor, blocking concurrent
  /// callers on the same memo (they share the one run instead of
  /// recomputing). `opts` configures the kernel runs (num_threads,
  /// prefetch_distance).
  Access ensure(bool need_components, bool need_core, bool need_rank,
                const ViewFn& view, const BFSOptions& opts);

  // Accessors, valid for flavors a completed ensure() requested.
  const std::vector<vid_t>& components() const { return components_; }
  /// Component vertex count, indexed by canonical label (only entries
  /// that are some vertex's label are nonzero).
  const std::vector<std::uint64_t>& size_by_label() const {
    return size_by_label_;
  }
  const std::vector<std::uint32_t>& core() const { return core_; }
  /// (vertex, rank) by descending PageRank, ties by ascending id.
  const std::vector<std::pair<vid_t, double>>& rank_sorted() const {
    return rank_sorted_;
  }

 private:
  std::mutex mutex_;
  bool have_components_ = false;
  bool have_core_ = false;
  bool have_rank_ = false;
  std::vector<vid_t> components_;
  std::vector<std::uint64_t> size_by_label_;
  std::vector<std::uint32_t> core_;
  std::vector<std::pair<vid_t, double>> rank_sorted_;
};

}  // namespace optibfs
