#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "graph/graph_io.hpp"
#include "graph/graph_props.hpp"

namespace optibfs {

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

// ---------------------------------------------------------------------------
// DynamicGraph
// ---------------------------------------------------------------------------

DynamicGraph::DynamicGraph(std::shared_ptr<const CsrGraph> base, Config config)
    : config_(config), base_(std::move(base)) {
  if (base_ == nullptr) throw std::invalid_argument("DynamicGraph: null base");
  content_hash_ = structural_fingerprint(*base_);
  max_out_degree_ = base_->max_out_degree();
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

void DynamicGraph::refresh_max_out_degree() {
  if (delta_ == nullptr || delta_->empty()) {
    max_out_degree_ = base_->max_out_degree();
    return;
  }
  // The base figure survives unless a deletion touched a vertex; spills
  // only raise degrees. Exact over all n is one cheap scan per batch —
  // batches are rare next to the per-query reads of this accessor.
  vid_t best = 0;
  const vid_t n = base_->num_vertices();
  const GraphSnapshot snap = snapshot();
  for (vid_t v = 0; v < n; ++v) {
    vid_t deg = base_->out_degree(base_->to_internal(v));
    if (delta_->deleted_sources.find(v) != delta_->deleted_sources.end()) {
      deg = snap.out_degree(v);
    } else if (const auto it = delta_->extra_out.find(v);
               it != delta_->extra_out.end()) {
      deg += static_cast<vid_t>(it->second.size());
    }
    best = std::max(best, deg);
  }
  max_out_degree_ = best;
}

BatchSummary DynamicGraph::apply(const UpdateBatch& batch) {
  const vid_t n = base_->num_vertices();

  // Copy-on-write: published overlays are immutable, so mutate a copy
  // and publish it wholesale. Untouched spill vectors share nothing
  // with readers after the copy, and the copy cost is bounded by the
  // compaction threshold.
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
        it->second.erase(std::find(it->second.begin(), it->second.end(), v));
        auto& in = next->extra_in[v];
        in.erase(std::find(in.begin(), in.end(), u));
        --next->spill_edges;
        summary.deletes.emplace_back(u, v);
        ++summary.erased;
      } else if (!next->is_deleted(u, v) &&
                 base_->has_edge(base_->to_internal(u), base_->to_internal(v))) {
        next->deleted.insert(DeltaOverlay::edge_key(u, v));
        next->deleted_sources.insert(u);
        next->deleted_targets.insert(v);
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
  } else {
    refresh_max_out_degree();
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
  max_out_degree_ = base_->max_out_degree();
}

}  // namespace optibfs
