#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "graph/graph_io.hpp"
#include "graph/graph_props.hpp"

namespace optibfs {

namespace {

/// Drops one masked pair from `v`'s count; `v` leaves with its last.
void drop_masked(std::unordered_map<vid_t, std::uint32_t>& count, vid_t v) {
  const auto it = count.find(v);
  if (--it->second == 0) count.erase(it);
}

/// Takes one copy of `w` out of `v`'s spill list; an emptied list goes.
void drop_spill(std::unordered_map<vid_t, std::vector<vid_t>>& spill, vid_t v,
                vid_t w) {
  const auto it = spill.find(v);
  it->second.erase(std::find(it->second.begin(), it->second.end(), w));
  if (it->second.empty()) spill.erase(it);
}

}  // namespace

// ---------------------------------------------------------------------------
// GraphSnapshot
// ---------------------------------------------------------------------------

bool GraphSnapshot::has_edge(vid_t u, vid_t v) const {
  if (delta_ != nullptr) {
    if (const auto it = delta_->extra_out.find(u);
        it != delta_->extra_out.end() &&
        std::find(it->second.begin(), it->second.end(), v) != it->second.end()) {
      return true;
    }
    if (delta_->is_deleted(u, v)) return false;
  }
  return base_->has_edge(base_->to_internal(u), base_->to_internal(v));
}

vid_t GraphSnapshot::out_degree(vid_t v) const {
  const CsrGraph& g = *base_;
  vid_t deg = g.out_degree(g.to_internal(v));
  if (delta_ != nullptr) {
    if (delta_->deleted_sources.find(v) != delta_->deleted_sources.end()) {
      deg = 0;
      for (const vid_t wi : g.out_neighbors(g.to_internal(v))) {
        if (!delta_->is_deleted(v, g.to_original(wi))) ++deg;
      }
    }
    if (const auto it = delta_->extra_out.find(v);
        it != delta_->extra_out.end()) {
      deg += static_cast<vid_t>(it->second.size());
    }
  }
  return deg;
}

EdgeList GraphSnapshot::to_edge_list() const {
  EdgeList out(num_vertices());
  const vid_t n = num_vertices();
  for (vid_t v = 0; v < n; ++v) {
    for_each_out(v, [&](vid_t w) { out.add_unchecked(v, w); });
  }
  return out;
}

CsrGraph GraphSnapshot::flatten() const {
  const vid_t n = num_vertices();
  if (n == 0) return CsrGraph::from_edges(EdgeList(0));
  const CsrGraph& g = *base_;
  const eid_t* base_off = g.offsets().data();
  const vid_t* base_tgt = g.targets().data();

  // The dirty vertices in internal order, closed by the sentinel n.
  std::vector<vid_t> dirty;
  if (delta_ != nullptr) {
    for (const auto& entry : delta_->extra_out) {
      dirty.push_back(g.to_internal(entry.first));
    }
    for (const auto& entry : delta_->deleted_sources) {
      dirty.push_back(g.to_internal(entry.first));
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }
  dirty.push_back(n);

  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0, i = 0; v < n; ++v) {
    const vid_t degree =
        v == dirty[i] ? out_degree(g.to_original(dirty[i++])) : g.out_degree(v);
    offsets[v + 1] = offsets[v] + degree;
  }
  // Each run of clean rows is one block of the base's target array; a
  // dirty row is rebuilt through for_each_out (the one definition of a
  // CSR ∪ delta row) and sorted.
  std::vector<vid_t> targets(offsets[n]);
  vid_t clean = 0;
  for (const vid_t d : dirty) {
    std::copy(base_tgt + base_off[clean], base_tgt + base_off[d],
              targets.data() + offsets[clean]);
    if (d == n) break;
    vid_t* const row = targets.data() + offsets[d];
    vid_t* end = row;
    for_each_out(g.to_original(d), [&](vid_t w) { *end++ = g.to_internal(w); });
    std::sort(row, end);
    clean = d + 1;
  }
  return CsrGraph::from_storage(
      std::make_shared<storage::HeapStorage>(std::move(offsets),
                                             std::move(targets)),
      std::vector<vid_t>(g.perm().begin(), g.perm().end()),
      std::vector<vid_t>(g.inv_perm().begin(), g.inv_perm().end()));
}

// ---------------------------------------------------------------------------
// DynamicGraph
// ---------------------------------------------------------------------------

DynamicGraph::DynamicGraph(std::shared_ptr<const CsrGraph> base, Config config)
    : config_(config), base_(std::move(base)) {
  if (base_ == nullptr) throw std::invalid_argument("DynamicGraph: null base");
  content_hash_ = structural_fingerprint(*base_);
}

eid_t DynamicGraph::num_edges() const {
  const eid_t m = base_->num_edges();
  return delta_ ? m + delta_->spill_edges - delta_->deleted_base_copies : m;
}

std::uint64_t DynamicGraph::base_multiplicity(vid_t u, vid_t v) const {
  const auto adj = base_->out_neighbors(base_->to_internal(u));
  const vid_t vi = base_->to_internal(v);
  const auto [lo, hi] = std::equal_range(adj.begin(), adj.end(), vi);
  return static_cast<std::uint64_t>(hi - lo);
}

vid_t DynamicGraph::max_out_degree() const {
  if (!has_delta()) return base_->max_out_degree();
  vid_t best = 0;
  const GraphSnapshot snap = snapshot();
  for (vid_t v = 0; v < base_->num_vertices(); ++v) {
    best = std::max(best, snap.out_degree(v));
  }
  return best;
}

BatchSummary DynamicGraph::apply(const UpdateBatch& batch) {
  const vid_t n = base_->num_vertices();

  // Copy-on-write: published overlays are immutable, so mutate a copy
  // and publish it wholesale. Untouched spill vectors share nothing
  // with readers after the copy, and the copy cost is bounded by the
  // compaction threshold — the overlay holds only the live delta (see
  // DeltaOverlay), so undone updates leave nothing behind to copy.
  auto next = delta_ ? std::make_shared<DeltaOverlay>(*delta_)
                     : std::make_shared<DeltaOverlay>();

  BatchSummary summary;
  std::uint64_t batch_hash = 0x5D7A3EC1ull;
  for (const EdgeUpdate& upd : batch.updates) {
    if (upd.src >= n || upd.dst >= n) {
      throw std::out_of_range(
          "DynamicGraph::apply: vertex id out of range (" +
          std::to_string(upd.src) + " -> " + std::to_string(upd.dst) + ")");
    }
    const vid_t u = upd.src;
    const vid_t v = upd.dst;
    if (upd.insert) {
      if (next->is_deleted(u, v)) {
        // Re-insert of a masked base edge: unmask it (all parallel base
        // copies come back — deletion removed them all).
        next->deleted.erase(DeltaOverlay::edge_key(u, v));
        next->deleted_base_copies -= base_multiplicity(u, v);
        drop_masked(next->deleted_sources, u);
        drop_masked(next->deleted_targets, v);
        summary.inserts.emplace_back(u, v);
        ++summary.inserted;
      } else if (current_has_edge_in(*next, u, v)) {
        ++summary.ignored;
      } else {
        next->extra_out[u].push_back(v);
        next->extra_in[v].push_back(u);
        ++next->spill_edges;
        summary.inserts.emplace_back(u, v);
        ++summary.inserted;
      }
      batch_hash = fingerprint_mix(batch_hash, DeltaOverlay::edge_key(u, v));
    } else {
      if (auto it = next->extra_out.find(u);
          it != next->extra_out.end() &&
          std::find(it->second.begin(), it->second.end(), v) !=
              it->second.end()) {
        // Spilled insert taken back: remove one copy from both sides.
        drop_spill(next->extra_out, u, v);
        drop_spill(next->extra_in, v, u);
        --next->spill_edges;
        summary.deletes.emplace_back(u, v);
        ++summary.erased;
      } else if (!next->is_deleted(u, v) &&
                 base_->has_edge(base_->to_internal(u), base_->to_internal(v))) {
        next->deleted.insert(DeltaOverlay::edge_key(u, v));
        ++next->deleted_sources[u];
        ++next->deleted_targets[v];
        next->deleted_base_copies += base_multiplicity(u, v);
        summary.deletes.emplace_back(u, v);
        ++summary.erased;
      } else {
        ++summary.ignored;
      }
      batch_hash =
          fingerprint_mix(batch_hash, ~DeltaOverlay::edge_key(u, v));
    }
  }

  // Publish. The version bumps even for a no-op batch (service queue
  // stamping wants monotone versions), but the content fingerprint only
  // moves when the edge set actually changed.
  delta_ = std::move(next);
  ++version_;
  if (summary.changed()) {
    content_hash_ = fingerprint_mix(content_hash_, batch_hash);
  }

  std::uint64_t* ctr = counters_.slab(0);
  ctr[telemetry::kUpdateBatches] += 1;
  ctr[telemetry::kEdgesInserted] += summary.inserted;
  ctr[telemetry::kEdgesDeleted] += summary.erased;

  if (config_.compact_threshold > 0 &&
      static_cast<double>(delta_->delta_edges()) >
          config_.compact_threshold *
              static_cast<double>(std::max<eid_t>(base_->num_edges(), 1))) {
    compact_locked();
    summary.compacted = true;
  }

  summary.version = version_;
  return summary;
}

// Like current_has_edge but against an in-flight (unpublished) overlay,
// so earlier updates in the same batch are visible to later ones.
bool DynamicGraph::current_has_edge_in(const DeltaOverlay& d, vid_t u,
                                       vid_t v) const {
  if (const auto it = d.extra_out.find(u);
      it != d.extra_out.end() &&
      std::find(it->second.begin(), it->second.end(), v) != it->second.end()) {
    return true;
  }
  if (d.is_deleted(u, v)) return false;
  return base_->has_edge(base_->to_internal(u), base_->to_internal(v));
}

bool DynamicGraph::compact() {
  if (!has_delta()) return false;
  compact_locked();
  return true;
}

void DynamicGraph::compact_locked() {
  // Flatten CSR ∪ delta back to an edge list in original IDs and rebuild
  // through the exact path register_graph uses: from_edges, then the
  // configured reorder policy. The permutation is re-derived from the
  // *post-update* degree distribution, so hub clustering tracks where
  // the hubs actually are now.
  const EdgeList merged = snapshot().to_edge_list();
  auto rebuilt = CsrGraph::from_edges(merged);
  if (config_.reorder != ReorderPolicy::kNone) {
    rebuilt = rebuilt.reorder(config_.reorder);
  }
  if (!config_.compact_storage_path.empty()) {
    // Compact *into* the storage tier: persist the merged CSR (binary
    // v2 keeps the permutation) and re-open it as the new base. Unlink
    // first — a previous base may still map the old inode, and POSIX
    // keeps that inode alive until its last mapping drops; truncating
    // it in place would SIGBUS concurrent snapshot readers instead.
    std::remove(config_.compact_storage_path.c_str());
    io::write_binary_csr(config_.compact_storage_path, rebuilt);
    io::CsrLoadOptions load;
    load.storage = config_.compact_storage;
    load.budget_bytes = config_.compact_storage_budget_bytes;
    rebuilt = io::read_binary_csr(config_.compact_storage_path, load);
  }
  // Materialize the transpose eagerly: snapshot().for_each_in is used
  // from repair pre-passes and service path reconstruction, and the
  // lazy build's mutex must not fire mid-traversal.
  rebuilt.transpose();
  base_ = std::make_shared<const CsrGraph>(std::move(rebuilt));
  delta_ = nullptr;
  ++version_;
  ++compactions_;
  counters_.slab(0)[telemetry::kCompactions] += 1;
  // Re-canonicalize: the fingerprint is now derivable from the merged
  // CSR alone, so two histories that compacted to the same edge set
  // agree again.
  content_hash_ = structural_fingerprint(*base_);
}

}  // namespace optibfs
