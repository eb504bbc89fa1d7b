// Dynamic-graph layer: batched edge updates over the immutable CSR.
//
// Every engine in the library traverses an immutable CsrGraph, and until
// now the only mutation path was a full re-registration — rebuild the
// CSR, drop the result cache, recompute everything. A production BFS
// service cannot afford that per edge churn. DynamicGraph keeps the CSR
// immutable and overlays a small *delta*:
//
//   * inserted edges live in per-vertex spill lists (CSR ∪ delta reads
//     walk the CSR adjacency, then the spill);
//   * deleted edges are masked by a hash set consulted only for source
//     vertices that actually lost an edge (a per-source count keeps
//     clean vertices on the zero-cost path);
//   * kernels read one flattened heap CSR per version (flatten(): clean
//     rows block-copied, dirty rows rebuilt), not the overlay;
//   * once the delta outgrows a configurable fraction of the base edge
//     count, apply() compacts: base ∪ delta is flattened back through
//     EdgeList and re-run through CsrGraph::reorder, so the configured
//     reorder policy survives compaction (the permutation is re-derived
//     from the *new* degrees — relabeling has exactly one implementation,
//     EdgeList::relabel, and compaction reuses it).
//
// Concurrency discipline (DESIGN.md sections 4 and 9): the overlay is
// copy-on-write. apply() is a single-mutator operation that builds a
// fresh immutable DeltaOverlay and publishes it with a version bump
// while readers stay pinned on earlier versions: every published
// overlay and base CSR is immutable and shared_ptr-owned, so a reader's
// GraphSnapshot stays valid across any number of applies and
// compactions. Readers pin the version they traverse into an
// EpochRoster slot with plain stores — no locks and no atomic RMW
// anywhere on the read path.
//
// All public vertex IDs are in the *original* ID space, even when the
// base CSR is reordered (bfs_result.hpp convention): the overlay stores
// original IDs and GraphSnapshot's adjacency walks translate at the CSR
// boundary (a no-op for unreordered graphs).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "runtime/cache_aligned.hpp"
#include "telemetry/counters.hpp"

namespace optibfs {

/// One edge mutation, in original vertex IDs.
struct EdgeUpdate {
  vid_t src = 0;
  vid_t dst = 0;
  bool insert = true;  ///< false = delete
};

/// A batch of mutations applied atomically (one version bump).
struct UpdateBatch {
  std::vector<EdgeUpdate> updates;

  void insert(vid_t u, vid_t v) { updates.push_back({u, v, true}); }
  void erase(vid_t u, vid_t v) { updates.push_back({u, v, false}); }
  std::size_t size() const { return updates.size(); }
  bool empty() const { return updates.empty(); }
};

/// What one apply() actually changed — the repair seeds. `inserts` and
/// `deletes` list only the updates that took effect (duplicates of
/// existing edges and deletes of absent edges land in `ignored`).
struct BatchSummary {
  std::uint64_t version = 0;  ///< DynamicGraph version after the batch
  std::uint64_t inserted = 0;
  std::uint64_t erased = 0;
  std::uint64_t ignored = 0;
  bool compacted = false;
  std::vector<std::pair<vid_t, vid_t>> inserts;  ///< applied, original IDs
  std::vector<std::pair<vid_t, vid_t>> deletes;  ///< applied, original IDs

  bool changed() const { return inserted + erased > 0; }
};

/// Immutable delta published by one apply(). Readers hold it through a
/// GraphSnapshot; the mutator never modifies a published overlay.
///
/// Invariant: the overlay holds only the live delta. A spill list is
/// never empty (taking back a vertex's last spilled insert erases its
/// entry), and a vertex is in `deleted_sources` / `deleted_targets`
/// exactly while it is the source / target of some masked pair, the
/// count being how many. apply() copies the whole overlay, so keys left
/// behind by undone updates would grow every later apply's cost.
struct DeltaOverlay {
  /// Inserted edges, spilled per source / per target (original IDs).
  std::unordered_map<vid_t, std::vector<vid_t>> extra_out;
  std::unordered_map<vid_t, std::vector<vid_t>> extra_in;
  /// Masked base edges, keyed (src << 32 | dst); `deleted_sources` /
  /// `deleted_targets` count the masked pairs per source / per target,
  /// so clean vertices skip the hash probe entirely.
  std::unordered_set<std::uint64_t> deleted;
  std::unordered_map<vid_t, std::uint32_t> deleted_sources;
  std::unordered_map<vid_t, std::uint32_t> deleted_targets;
  std::uint64_t spill_edges = 0;          ///< live inserted edges
  std::uint64_t deleted_base_copies = 0;  ///< base edges masked (multi-edges count each)

  static std::uint64_t edge_key(vid_t u, vid_t v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  bool is_deleted(vid_t u, vid_t v) const {
    return deleted.find(edge_key(u, v)) != deleted.end();
  }
  bool empty() const { return spill_edges == 0 && deleted.empty(); }
  std::uint64_t delta_edges() const { return spill_edges + deleted_base_copies; }
};

/// An immutable view of CSR ∪ delta at one version. Cheap to copy; the
/// shared_ptrs keep the base and overlay alive for as long as any
/// traversal holds the snapshot (version pinning by ownership — the
/// EpochRoster below adds the observable plain-store variant).
class GraphSnapshot {
 public:
  GraphSnapshot() = default;
  GraphSnapshot(std::shared_ptr<const CsrGraph> base,
                std::shared_ptr<const DeltaOverlay> delta,
                std::uint64_t version)
      : base_(std::move(base)), delta_(std::move(delta)), version_(version) {}

  const CsrGraph& base() const { return *base_; }
  std::uint64_t version() const { return version_; }
  bool has_delta() const { return delta_ != nullptr && !delta_->empty(); }
  /// The overlay this snapshot reads (null when the version is clean).
  const DeltaOverlay* delta() const { return delta_.get(); }

  vid_t num_vertices() const { return base_ ? base_->num_vertices() : 0; }
  eid_t num_edges() const {
    if (!base_) return 0;
    const eid_t m = base_->num_edges();
    return delta_ ? m + delta_->spill_edges - delta_->deleted_base_copies : m;
  }

  /// Walks v's out-neighbors in CSR ∪ delta, original IDs. The callback
  /// may return void (visit all) or bool (false stops the walk early).
  template <class F>
  void for_each_out(vid_t v, F&& f) const {
    const CsrGraph& g = *base_;
    const bool filtered =
        delta_ && delta_->deleted_sources.find(v) != delta_->deleted_sources.end();
    for (const vid_t wi : g.out_neighbors(g.to_internal(v))) {
      const vid_t w = g.to_original(wi);
      if (filtered && delta_->is_deleted(v, w)) continue;
      if (!invoke_visit(f, w)) return;
    }
    if (delta_ != nullptr) {
      if (const auto it = delta_->extra_out.find(v);
          it != delta_->extra_out.end()) {
        for (const vid_t w : it->second) {
          if (!invoke_visit(f, w)) return;
        }
      }
    }
  }

  /// Walks v's in-neighbors (same contract as for_each_out). Uses the
  /// base transpose — materialize it before traversing from parallel
  /// code (CsrGraph::transpose lazily builds under a mutex).
  template <class F>
  void for_each_in(vid_t v, F&& f) const {
    const CsrGraph& g = *base_;
    const CsrGraph& tr = g.transpose();
    const bool filtered =
        delta_ && delta_->deleted_targets.find(v) != delta_->deleted_targets.end();
    for (const vid_t ui : tr.out_neighbors(g.to_internal(v))) {
      const vid_t u = g.to_original(ui);
      if (filtered && delta_->is_deleted(u, v)) continue;
      if (!invoke_visit(f, u)) return;
    }
    if (delta_ != nullptr) {
      if (const auto it = delta_->extra_in.find(v);
          it != delta_->extra_in.end()) {
        for (const vid_t u : it->second) {
          if (!invoke_visit(f, u)) return;
        }
      }
    }
  }

  /// True if u -> v exists in CSR ∪ delta.
  bool has_edge(vid_t u, vid_t v) const;

  /// Current out-degree of v (base minus deleted plus spilled).
  vid_t out_degree(vid_t v) const;

  /// Flattens CSR ∪ delta into an edge list in original IDs (oracle
  /// tests, compaction).
  EdgeList to_edge_list() const;

  /// CSR ∪ delta as one heap CsrGraph in the base's internal vertex
  /// order, carrying the base's permutation, built in one linear pass:
  /// clean rows are block-copied from the base, and only the dirty
  /// vertices' rows (live spill sources and sources of a masked pair)
  /// are rebuilt and sorted. Equal to CsrGraph::from_edges(
  /// to_edge_list()) relabeled through the base's permutation. The
  /// kernel view of a version with a live delta.
  CsrGraph flatten() const;

 private:
  template <class F>
  static bool invoke_visit(F& f, vid_t w) {
    if constexpr (std::is_void_v<decltype(f(w))>) {
      f(w);
      return true;
    } else {
      return f(w);
    }
  }

  std::shared_ptr<const CsrGraph> base_;
  std::shared_ptr<const DeltaOverlay> delta_;
  std::uint64_t version_ = 0;
};

/// Fixed-slot reader roster: reader r publishes the snapshot version it
/// is traversing into its own cache-line-padded slot with a plain
/// (relaxed) store, and clears it the same way when done. The single
/// mutator applies *while* readers are pinned (copy-on-write snapshots
/// keep every pinned version alive) and reads the roster only at
/// advisory points — right before an apply, to count how many readers
/// the update overlapped instead of waiting for them. The plain stores
/// are race-benign in exactly the paper's sense: a scan answers "may I
/// retire this version" / "is a reader overlapping me", never acts as a
/// synchronization point. No locks, no atomic RMW.
class EpochRoster {
 public:
  static constexpr std::uint64_t kUnpinned = ~std::uint64_t{0};

  explicit EpochRoster(int slots = 64) : slots_(static_cast<std::size_t>(slots)) {
    for (auto& s : slots_) s.value = kUnpinned;
  }

  int num_slots() const { return static_cast<int>(slots_.size()); }

  void pin(int slot, std::uint64_t version) {
    std::atomic_ref<std::uint64_t>(slots_[static_cast<std::size_t>(slot)].value)
        .store(version, std::memory_order_relaxed);
  }
  void unpin(int slot) { pin(slot, kUnpinned); }

  /// RAII pin for the lifetime of one dispatch. Unpinning on every exit
  /// path keeps the roster honest even when an engine throws mid-batch
  /// (promoted here from the service's private RosterPin so every
  /// reader tier shares one implementation).
  class Pin {
   public:
    Pin(EpochRoster& roster, int slot, std::uint64_t version)
        : roster_(roster), slot_(slot) {
      roster_.pin(slot_, version);
    }
    ~Pin() { roster_.unpin(slot_); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    EpochRoster& roster_;
    int slot_;
  };

  /// Smallest pinned version, or kUnpinned when nobody is pinned.
  std::uint64_t min_pinned() const {
    std::uint64_t low = kUnpinned;
    for (const auto& s : slots_) {
      const std::uint64_t v =
          std::atomic_ref<const std::uint64_t>(s.value).load(
              std::memory_order_relaxed);
      if (v < low) low = v;
    }
    return low;
  }
  bool quiescent() const { return min_pinned() == kUnpinned; }

  /// Readers currently pinned (advisory, like min_pinned).
  int pinned_slots() const {
    int pinned = 0;
    for (const auto& s : slots_) {
      if (std::atomic_ref<const std::uint64_t>(s.value).load(
              std::memory_order_relaxed) != kUnpinned) {
        ++pinned;
      }
    }
    return pinned;
  }

 private:
  std::vector<CacheAligned<std::uint64_t>> slots_;
};

/// Mutable dynamic graph: one writer (apply / compact), any number of
/// snapshot readers pinned on earlier versions.
class DynamicGraph {
 public:
  struct Config {
    /// Compact when the delta (spilled + masked edges) exceeds this
    /// fraction of the base edge count. <= 0 disables auto-compaction.
    double compact_threshold = 0.125;
    /// Reorder policy re-applied at compaction so locality preprocessing
    /// survives (and adapts to the post-update degree distribution).
    ReorderPolicy reorder = ReorderPolicy::kNone;
    /// Storage tier (DESIGN.md §12): when non-empty, each compaction
    /// writes the merged CSR to this path (binary format v2, the
    /// permutation included) and re-opens it as the new base through
    /// `compact_storage` — so a long-lived dynamic graph can live
    /// out-of-core, paying RAM only for the delta overlay. The path is
    /// unlinked before each rewrite, so a previous base still mapping
    /// the old inode stays valid until its last snapshot drops (POSIX
    /// unlink semantics). Empty keeps compaction heap-backed.
    std::string compact_storage_path;
    /// Backend for the re-opened base when compact_storage_path is set.
    storage::StorageKind compact_storage = storage::StorageKind::kMmap;
    /// Residency budget for the re-opened mmap base (0 = uncapped).
    std::uint64_t compact_storage_budget_bytes = 0;
  };

  explicit DynamicGraph(std::shared_ptr<const CsrGraph> base)
      : DynamicGraph(std::move(base), Config{}) {}
  DynamicGraph(std::shared_ptr<const CsrGraph> base, Config config);

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  vid_t num_vertices() const { return base_->num_vertices(); }
  eid_t num_edges() const;
  /// Exact maximum out-degree of CSR ∪ delta, computed when asked
  /// (O(n) while a delta is live) — never a stale base-CSR figure, and
  /// no update pays for it.
  vid_t max_out_degree() const;

  std::uint64_t version() const { return version_; }
  bool has_delta() const { return delta_ != nullptr && !delta_->empty(); }
  std::uint64_t compactions() const { return compactions_; }

  /// Content identity for cache keys: the base CSR's reorder-invariant
  /// structural_fingerprint, chained with a hash of every applied batch
  /// and re-canonicalized from the merged CSR at each compaction. Two
  /// DynamicGraphs that reached the same edge set through the same
  /// batch history (or through compaction) fingerprint identically.
  std::uint64_t content_fingerprint() const { return content_hash_; }

  /// The current immutable base (engines traverse this when the delta
  /// is empty; it is replaced — never mutated — by compaction).
  std::shared_ptr<const CsrGraph> base_csr() const { return base_; }

  /// Immutable CSR ∪ delta view at the current version.
  GraphSnapshot snapshot() const {
    return GraphSnapshot(base_, delta_, version_);
  }

  /// Applies one batch: single-mutator; readers holding snapshots of
  /// earlier versions are unaffected. Throws std::out_of_range for
  /// vertex IDs outside [0, num_vertices). Returns what changed, for
  /// repair seeding; may compact (summary.compacted).
  BatchSummary apply(const UpdateBatch& batch);

  /// Forces compaction of a non-empty delta. Returns false when there
  /// was nothing to compact.
  bool compact();

  /// Reader roster (see EpochRoster): readers pin the version they
  /// traverse; the mutator counts overlapping readers before applies.
  EpochRoster& roster() { return roster_; }

  /// Flight-recorder totals: edges_inserted / edges_deleted /
  /// update_batches / compactions, bumped with plain stores on the
  /// single mutator's slab and read at quiescent points.
  telemetry::CounterSnapshot telemetry_counters() const {
    return counters_.aggregate();
  }

 private:
  /// Edge-presence check against an in-flight (unpublished) overlay, so
  /// earlier updates within one batch are visible to later ones.
  bool current_has_edge_in(const DeltaOverlay& d, vid_t u, vid_t v) const;
  /// Multiplicity of u -> v in the base CSR (multi-edges count each).
  std::uint64_t base_multiplicity(vid_t u, vid_t v) const;
  void compact_locked();

  Config config_;
  std::shared_ptr<const CsrGraph> base_;
  std::shared_ptr<const DeltaOverlay> delta_;  ///< null = clean
  std::uint64_t version_ = 0;
  std::uint64_t content_hash_ = 0;
  std::uint64_t compactions_ = 0;
  EpochRoster roster_;
  telemetry::CounterRegistry counters_{1};  ///< single-mutator slab
};

}  // namespace optibfs
