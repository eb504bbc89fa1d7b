// Dynamic-graph layer: delta overlay, snapshots, incremental repair
// (src/dynamic/), and the service integration of apply_updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/bfs_serial.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_bfs.hpp"
#include "graph/generators.hpp"
#include "graph/graph_props.hpp"
#include "runtime/rng.hpp"
#include "service/bfs_service.hpp"

namespace optibfs {
namespace {

std::shared_ptr<const CsrGraph> make_graph(const EdgeList& edges,
                                           ReorderPolicy policy =
                                               ReorderPolicy::kNone) {
  CsrGraph g = CsrGraph::from_edges(edges);
  if (policy != ReorderPolicy::kNone) g = g.reorder(policy);
  return std::make_shared<const CsrGraph>(std::move(g));
}

/// Reference graph for a snapshot: flatten CSR ∪ delta and rebuild.
CsrGraph oracle_graph(const GraphSnapshot& snap) {
  return CsrGraph::from_edges(snap.to_edge_list());
}

std::vector<vid_t> sorted_out(const GraphSnapshot& snap, vid_t v) {
  std::vector<vid_t> out;
  snap.for_each_out(v, [&](vid_t w) { out.push_back(w); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<vid_t> sorted_in(const GraphSnapshot& snap, vid_t v) {
  std::vector<vid_t> in;
  snap.for_each_in(v, [&](vid_t u) { in.push_back(u); });
  std::sort(in.begin(), in.end());
  return in;
}

TEST(DynamicGraph, ApplyInsertDeleteSemantics) {
  EdgeList el(5);
  el.add_unchecked(0, 1);
  el.add_unchecked(1, 2);
  el.add_unchecked(2, 3);
  DynamicGraph::Config config;
  config.compact_threshold = 10.0;  // tiny graph: keep the overlay live
  DynamicGraph dyn(make_graph(el), config);
  EXPECT_EQ(dyn.num_edges(), 3u);
  EXPECT_FALSE(dyn.has_delta());
  const std::uint64_t fp0 = dyn.content_fingerprint();

  UpdateBatch batch;
  batch.insert(3, 4);   // new edge -> spill
  batch.insert(0, 1);   // already present -> ignored
  batch.erase(1, 2);    // base edge -> masked
  batch.erase(4, 0);    // absent -> ignored
  const BatchSummary summary = dyn.apply(batch);
  EXPECT_EQ(summary.inserted, 1u);
  EXPECT_EQ(summary.erased, 1u);
  EXPECT_EQ(summary.ignored, 2u);
  EXPECT_FALSE(summary.compacted);
  EXPECT_EQ(dyn.num_edges(), 3u);  // +1 -1
  EXPECT_TRUE(dyn.has_delta());
  EXPECT_NE(dyn.content_fingerprint(), fp0);
  EXPECT_EQ(dyn.version(), 1u);

  const GraphSnapshot snap = dyn.snapshot();
  EXPECT_TRUE(snap.has_edge(3, 4));
  EXPECT_FALSE(snap.has_edge(1, 2));
  EXPECT_TRUE(snap.has_edge(0, 1));
  EXPECT_EQ(sorted_out(snap, 1), std::vector<vid_t>{});
  EXPECT_EQ(sorted_in(snap, 4), std::vector<vid_t>{3});
  EXPECT_EQ(sorted_in(snap, 2), std::vector<vid_t>{});

  // Deleting a spilled insert takes it back; re-inserting a masked base
  // edge unmasks it.
  UpdateBatch undo;
  undo.erase(3, 4);
  undo.insert(1, 2);
  const BatchSummary summary2 = dyn.apply(undo);
  EXPECT_EQ(summary2.inserted, 1u);
  EXPECT_EQ(summary2.erased, 1u);
  EXPECT_EQ(dyn.num_edges(), 3u);
  EXPECT_FALSE(dyn.has_delta());  // overlay drained back to empty
  EXPECT_TRUE(dyn.snapshot().has_edge(1, 2));
  EXPECT_FALSE(dyn.snapshot().has_edge(3, 4));
}

TEST(DynamicGraph, NoopBatchKeepsFingerprint) {
  EdgeList el(3);
  el.add_unchecked(0, 1);
  DynamicGraph dyn(make_graph(el));
  const std::uint64_t fp0 = dyn.content_fingerprint();
  UpdateBatch noop;
  noop.insert(0, 1);  // duplicate
  noop.erase(2, 0);   // absent
  const BatchSummary summary = dyn.apply(noop);
  EXPECT_FALSE(summary.changed());
  EXPECT_EQ(dyn.content_fingerprint(), fp0);  // content identity stable
  EXPECT_EQ(dyn.version(), 1u);               // version still bumps
}

TEST(DynamicGraph, OverlayHoldsOnlyTheLiveDelta) {
  // Every apply copies the whole overlay, so an undone update must
  // leave no key behind: a spill list goes with its last edge, and a
  // vertex leaves the masked-source / masked-target counts with its
  // last masked pair (here a doubled base edge and a self-loop).
  EdgeList el(6);
  el.add_unchecked(0, 1);
  el.add_unchecked(0, 1);
  el.add_unchecked(0, 2);
  el.add_unchecked(3, 3);
  DynamicGraph::Config config;
  config.compact_threshold = 10.0;  // tiny graph: keep the overlay live
  DynamicGraph dyn(make_graph(el), config);

  UpdateBatch first;
  first.insert(4, 5);
  first.insert(4, 0);
  first.insert(2, 5);
  first.erase(0, 1);  // both copies masked
  first.erase(0, 2);
  first.erase(3, 3);
  dyn.apply(first);
  const GraphSnapshot first_snap = dyn.snapshot();
  const DeltaOverlay* live = first_snap.delta();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->extra_out.size(), 2u);
  EXPECT_EQ(live->extra_in.size(), 2u);
  EXPECT_EQ(live->deleted_sources.at(0), 2u);
  EXPECT_EQ(live->deleted_targets.at(3), 1u);

  UpdateBatch undo;
  undo.erase(4, 5);
  undo.erase(4, 0);
  undo.insert(0, 1);  // re-insert of a masked base edge
  undo.insert(3, 3);
  dyn.apply(undo);
  const GraphSnapshot snap = dyn.snapshot();
  const DeltaOverlay& d = *snap.delta();
  EXPECT_EQ(d.extra_out.count(4), 0u);
  EXPECT_EQ(d.extra_in.count(0), 0u);
  EXPECT_EQ(d.extra_in.count(5), 1u);  // 2 -> 5 is still live
  EXPECT_EQ(d.extra_out.size(), 1u);
  EXPECT_EQ(d.deleted_sources.at(0), 1u);  // 0 -> 2 is still masked
  EXPECT_EQ(d.deleted_sources.count(3), 0u);
  EXPECT_EQ(d.deleted_targets.count(1), 0u);
  EXPECT_EQ(d.deleted_targets.count(3), 0u);
  EXPECT_EQ(d.deleted_targets.size(), 1u);
  EXPECT_EQ(d.spill_edges, 1u);
  EXPECT_EQ(d.deleted_base_copies, 1u);
  EXPECT_EQ(sorted_out(snap, 0), (std::vector<vid_t>{1, 1}));
  EXPECT_EQ(sorted_out(snap, 3), std::vector<vid_t>{3});

  UpdateBatch rest;
  rest.erase(2, 5);
  rest.insert(0, 2);
  dyn.apply(rest);
  const GraphSnapshot last = dyn.snapshot();
  const DeltaOverlay& empty = *last.delta();
  EXPECT_TRUE(empty.extra_out.empty());
  EXPECT_TRUE(empty.extra_in.empty());
  EXPECT_TRUE(empty.deleted_sources.empty());
  EXPECT_TRUE(empty.deleted_targets.empty());
  EXPECT_FALSE(dyn.has_delta());
}

TEST(DynamicGraph, OutOfRangeUpdateThrows) {
  EdgeList el(3);
  el.add_unchecked(0, 1);
  DynamicGraph dyn(make_graph(el));
  UpdateBatch bad;
  bad.insert(0, 99);
  EXPECT_THROW(dyn.apply(bad), std::out_of_range);
}

TEST(DynamicGraph, MaxOutDegreeTracksDelta) {
  EdgeList el(64);
  for (vid_t v = 1; v <= 6; ++v) el.add_unchecked(0, v);  // hub: degree 6
  el.add_unchecked(7, 8);
  DynamicGraph::Config config;
  config.compact_threshold = 10.0;  // keep the overlay live
  DynamicGraph dyn(make_graph(el), config);
  EXPECT_EQ(dyn.max_out_degree(), 6u);

  UpdateBatch grow;
  for (vid_t v = 10; v < 22; ++v) grow.insert(9, v);  // new hub: 12 spills
  dyn.apply(grow);
  EXPECT_EQ(dyn.max_out_degree(), 12u);

  UpdateBatch shrink;
  for (vid_t v = 10; v < 22; ++v) shrink.erase(9, v);
  for (vid_t v = 1; v <= 6; ++v) shrink.erase(0, v);
  dyn.apply(shrink);
  EXPECT_EQ(dyn.max_out_degree(), 1u);  // only 7 -> 8 left
}

TEST(DynamicGraph, CompactionPreservesReorderPolicyAndContent) {
  const EdgeList el = gen::erdos_renyi(200, 900, 17);
  DynamicGraph::Config config;
  config.reorder = ReorderPolicy::kDegreeSort;
  config.compact_threshold = 0.01;  // compact almost immediately
  DynamicGraph dyn(make_graph(el, ReorderPolicy::kDegreeSort), config);
  EXPECT_TRUE(dyn.base_csr()->is_reordered());

  UpdateBatch batch;
  for (vid_t v = 100; v < 140; ++v) batch.insert(3, v);
  const BatchSummary summary = dyn.apply(batch);
  EXPECT_TRUE(summary.compacted);
  EXPECT_EQ(dyn.compactions(), 1u);
  EXPECT_FALSE(dyn.has_delta());
  // The rebuilt CSR re-derives the permutation from post-update degrees.
  EXPECT_TRUE(dyn.base_csr()->is_reordered());
  EXPECT_GE(dyn.base_csr()->max_out_degree(), 40u);
  EXPECT_GE(dyn.max_out_degree(), 40u);

  // Post-compaction fingerprint re-canonicalizes to the merged content:
  // building the same edge set fresh fingerprints identically.
  const CsrGraph merged = oracle_graph(dyn.snapshot());
  EXPECT_EQ(dyn.content_fingerprint(), structural_fingerprint(merged));
}

TEST(StructuralFingerprint, ReorderInvariantButContentSensitive) {
  const EdgeList el = gen::erdos_renyi(300, 1500, 5);
  const CsrGraph plain = CsrGraph::from_edges(el);
  EXPECT_EQ(structural_fingerprint(plain),
            structural_fingerprint(plain.reorder(ReorderPolicy::kDegreeSort)));
  EXPECT_EQ(structural_fingerprint(plain),
            structural_fingerprint(plain.reorder(ReorderPolicy::kHubCluster)));
  EdgeList changed = el;
  changed.add_unchecked(0, 299);
  EXPECT_NE(structural_fingerprint(plain),
            structural_fingerprint(CsrGraph::from_edges(changed)));
}

TEST(StructuralFingerprint, FullPassSeesEditsThatDodgeSampledProbes) {
  const EdgeList el = gen::erdos_renyi(300, 1500, 5);
  const CsrGraph plain = CsrGraph::from_edges(el);
  // Reroute one out-edge of a vertex a strided probe set would skip
  // (every 4th vertex on n=300): n, m, and every adjacency set of a
  // multiple of 4 are unchanged. A sampled fingerprint could not see
  // the edit; the full pass that gates cache retention must.
  std::size_t pick = el.edges().size();
  for (std::size_t i = 0; i < el.edges().size(); ++i) {
    if (el.edges()[i].src % 4 != 0) {
      pick = i;
      break;
    }
  }
  ASSERT_LT(pick, el.edges().size());
  const vid_t src = el.edges()[pick].src;
  vid_t new_dst = 0;
  while (new_dst == src || new_dst == el.edges()[pick].dst ||
         plain.has_edge(plain.to_internal(src), plain.to_internal(new_dst))) {
    ++new_dst;
  }
  EdgeList moved(300);
  for (std::size_t i = 0; i < el.edges().size(); ++i) {
    if (i == pick) {
      moved.add_unchecked(src, new_dst);
    } else {
      moved.add_unchecked(el.edges()[i].src, el.edges()[i].dst);
    }
  }
  const CsrGraph edited = CsrGraph::from_edges(moved);
  EXPECT_NE(structural_fingerprint(plain), structural_fingerprint(edited));
}

TEST(EpochRoster, PinUnpinMinPinned) {
  EpochRoster roster(4);
  EXPECT_TRUE(roster.quiescent());
  roster.pin(0, 7);
  roster.pin(2, 5);
  EXPECT_FALSE(roster.quiescent());
  EXPECT_EQ(roster.min_pinned(), 5u);
  roster.unpin(2);
  EXPECT_EQ(roster.min_pinned(), 7u);
  roster.unpin(0);
  EXPECT_TRUE(roster.quiescent());
}

TEST(IncrementalBfs, InsertOnlyRepairLowersLevels) {
  // 0 -> 1 -> 2 -> 3 chain plus a far island 5 -> 6; inserting 0 -> 5
  // attaches the island, inserting 0 -> 3 shortcuts the chain.
  EdgeList el(7);
  el.add_unchecked(0, 1);
  el.add_unchecked(1, 2);
  el.add_unchecked(2, 3);
  el.add_unchecked(5, 6);
  DynamicGraph dyn(make_graph(el));
  std::vector<level_t> level = bfs_serial(*dyn.base_csr(), 0).level;

  UpdateBatch batch;
  batch.insert(0, 5);
  batch.insert(0, 3);
  const BatchSummary summary = dyn.apply(batch);
  IncrementalBfsEngine engine;
  const RepairOutcome out = engine.repair(dyn.snapshot(), summary, 0, level);
  EXPECT_TRUE(out.repaired);
  EXPECT_EQ(out.cone_size, 0u);
  EXPECT_GT(out.waves, 0u);
  const BFSResult ref = bfs_serial(oracle_graph(dyn.snapshot()), 0);
  EXPECT_EQ(level, ref.level);
  EXPECT_EQ(level[5], 1);
  EXPECT_EQ(level[6], 2);
  EXPECT_EQ(level[3], 1);
}

TEST(IncrementalBfs, DeletionRepairUsesAlternatePaths) {
  // Diamond: 0 -> {1, 2}, 1 -> 3, 2 -> 3, 3 -> 4. Deleting 1 -> 3
  // keeps every distance (alternate parent 2); deleting also 2 -> 3
  // pushes 3 and 4 out of reach.
  EdgeList el(5);
  el.add_unchecked(0, 1);
  el.add_unchecked(0, 2);
  el.add_unchecked(1, 3);
  el.add_unchecked(2, 3);
  el.add_unchecked(3, 4);
  DynamicGraph dyn(make_graph(el));
  std::vector<level_t> level = bfs_serial(*dyn.base_csr(), 0).level;

  IncrementalBfsEngine::Config config;
  config.cone_recompute_fraction = 1.0;  // tiny graph: never fall back
  IncrementalBfsEngine engine(config);

  UpdateBatch first;
  first.erase(1, 3);
  BatchSummary summary = dyn.apply(first);
  RepairOutcome out = engine.repair(dyn.snapshot(), summary, 0, level);
  EXPECT_TRUE(out.repaired);
  EXPECT_EQ(out.cone_size, 0u);  // alternate-parent pruning: no cone
  EXPECT_EQ(level, bfs_serial(oracle_graph(dyn.snapshot()), 0).level);

  UpdateBatch second;
  second.erase(2, 3);
  summary = dyn.apply(second);
  out = engine.repair(dyn.snapshot(), summary, 0, level);
  EXPECT_TRUE(out.repaired);
  EXPECT_GE(out.cone_size, 2u);  // 3 and 4 invalidated
  EXPECT_EQ(level[3], kUnvisited);
  EXPECT_EQ(level[4], kUnvisited);
  EXPECT_EQ(level, bfs_serial(oracle_graph(dyn.snapshot()), 0).level);
}

TEST(IncrementalBfs, SameEdgeInsertThenDeleteInOneBatchIsPhantom) {
  // Chain 0 -> 1 -> 2 -> 3 -> 4. One batch inserts the shortcut 0 -> 4
  // and immediately takes it back: the summary lists the edge under
  // both inserts and deletes, and the repair must not seed level[4]=1
  // through the edge that no longer exists.
  EdgeList el(5);
  for (vid_t v = 0; v + 1 < 5; ++v) el.add_unchecked(v, v + 1);
  DynamicGraph::Config dyn_config;
  dyn_config.compact_threshold = 10.0;  // keep the overlay live
  DynamicGraph dyn(make_graph(el), dyn_config);
  std::vector<level_t> level = bfs_serial(*dyn.base_csr(), 0).level;

  UpdateBatch batch;
  batch.insert(0, 4);
  batch.erase(0, 4);
  const BatchSummary summary = dyn.apply(batch);
  EXPECT_FALSE(dyn.snapshot().has_edge(0, 4));

  IncrementalBfsEngine::Config config;
  config.cone_recompute_fraction = 1.0;
  IncrementalBfsEngine engine(config);
  const RepairOutcome out = engine.repair(dyn.snapshot(), summary, 0, level);
  EXPECT_TRUE(out.repaired);
  EXPECT_EQ(level[4], 4);
  EXPECT_EQ(level, bfs_serial(oracle_graph(dyn.snapshot()), 0).level);

  // Mirror image: delete-then-reinsert of a live tree edge. The edge
  // survives the batch, so no distance may move.
  UpdateBatch undo;
  undo.erase(1, 2);
  undo.insert(1, 2);
  const BatchSummary summary2 = dyn.apply(undo);
  const RepairOutcome out2 =
      engine.repair(dyn.snapshot(), summary2, 0, level);
  EXPECT_TRUE(out2.repaired);
  EXPECT_EQ(level, bfs_serial(oracle_graph(dyn.snapshot()), 0).level);
}

TEST(IncrementalBfs, LargeConeFallsBackBeforeMutating) {
  // A long path: severing it near the source invalidates almost every
  // vertex, so repair must bail out without touching the level array.
  constexpr vid_t kN = 1000;
  EdgeList el(kN);
  for (vid_t v = 0; v + 1 < kN; ++v) el.add_unchecked(v, v + 1);
  DynamicGraph dyn(make_graph(el));
  std::vector<level_t> level = bfs_serial(*dyn.base_csr(), 0).level;
  const std::vector<level_t> before = level;

  UpdateBatch batch;
  batch.erase(10, 11);
  const BatchSummary summary = dyn.apply(batch);
  IncrementalBfsEngine engine;  // default fraction 0.25 << cone of ~989
  const RepairOutcome out = engine.repair(dyn.snapshot(), summary, 0, level);
  EXPECT_FALSE(out.repaired);
  EXPECT_EQ(level, before);  // fallback decided before any mutation
  EXPECT_EQ(engine.telemetry_counters()[telemetry::kConeRecomputes], 1u);

  engine.recompute(dyn.snapshot(), 0, level);
  const BFSResult ref = bfs_serial(oracle_graph(dyn.snapshot()), 0);
  EXPECT_EQ(level, ref.level);
  EXPECT_EQ(level[10], 10);
  EXPECT_EQ(level[11], kUnvisited);
}

// The oracle sweep the issue asks for: K random insert/delete batches,
// repair (or its recompute fallback) must match a from-scratch serial
// BFS after every batch, across reorder policies and the word-scan
// toggle, with the parallel wave path forced so the benign admission
// races run under TSan in the sanitize sweep.
TEST(IncrementalBfs, RandomizedBatchesMatchSerialOracle) {
  constexpr vid_t kN = 400;
  const ReorderPolicy policies[] = {ReorderPolicy::kNone,
                                    ReorderPolicy::kDegreeSort,
                                    ReorderPolicy::kHubCluster};
  int variant = 0;
  for (const ReorderPolicy policy : policies) {
    for (const bool word_scan : {false, true}) {
      ++variant;
      const EdgeList el = gen::erdos_renyi(kN, 3000, 11);
      DynamicGraph::Config dyn_config;
      dyn_config.reorder = policy;  // exercised by mid-sweep compactions
      dyn_config.compact_threshold = 0.05;
      DynamicGraph dyn(make_graph(el, policy), dyn_config);

      IncrementalBfsEngine::Config config;
      config.bfs.num_threads = 4;
      config.bfs.bottom_up_word_scan = word_scan;
      config.parallel_cutoff = 0;  // force the team path (TSan target)
      IncrementalBfsEngine engine(config);

      const std::vector<vid_t> sources{1, 57, 203};
      std::vector<std::vector<level_t>> level;
      {
        const CsrGraph g0 = oracle_graph(dyn.snapshot());
        for (const vid_t s : sources) level.push_back(bfs_serial(g0, s).level);
      }

      Xoshiro256 rng(100u + static_cast<std::uint64_t>(variant));
      for (int round = 0; round < 6; ++round) {
        // Half inserts at random endpoints, half deletes of *existing*
        // edges (drawn from the current snapshot so they take effect).
        const EdgeList current = dyn.snapshot().to_edge_list();
        UpdateBatch batch;
        for (int k = 0; k < 10; ++k) {
          batch.insert(static_cast<vid_t>(rng.next_below(kN)),
                       static_cast<vid_t>(rng.next_below(kN)));
        }
        for (int k = 0; k < 10 && !current.edges().empty(); ++k) {
          const Edge& e = current.edges()[static_cast<std::size_t>(
              rng.next_below(current.edges().size()))];
          batch.erase(e.src, e.dst);
        }
        // Same-edge churn inside one batch: insert-then-delete of a
        // random edge and delete-then-reinsert of an existing one both
        // land the edge on both sides of the summary — repair must see
        // through the phantoms (regression for the seeding bug).
        {
          const vid_t u = static_cast<vid_t>(rng.next_below(kN));
          const vid_t v = static_cast<vid_t>(rng.next_below(kN));
          batch.insert(u, v);
          batch.erase(u, v);
        }
        if (!current.edges().empty()) {
          const Edge& e = current.edges()[static_cast<std::size_t>(
              rng.next_below(current.edges().size()))];
          batch.erase(e.src, e.dst);
          batch.insert(e.src, e.dst);
        }
        const BatchSummary summary = dyn.apply(batch);
        const GraphSnapshot snap = dyn.snapshot();
        const CsrGraph oracle = oracle_graph(snap);
        for (std::size_t i = 0; i < sources.size(); ++i) {
          const RepairOutcome out =
              engine.repair(snap, summary, sources[i], level[i]);
          if (!out.repaired) {
            engine.recompute(snap, sources[i], level[i]);
          }
          const BFSResult ref = bfs_serial(oracle, sources[i]);
          ASSERT_EQ(level[i], ref.level)
              << "policy " << reorder_policy_name(policy) << " word_scan "
              << word_scan << " round " << round << " source " << sources[i];
        }
      }
    }
  }
}

// ---- service integration ----

TEST(BfsServiceDynamic, ApplyUpdatesRepairsCacheAndMatchesOracle) {
  const EdgeList el = gen::erdos_renyi(500, 3000, 23);
  const auto graph = make_graph(el);
  ServiceConfig config;
  config.num_threads = 2;
  BfsService service(config);
  const std::uint64_t v1 = service.register_graph(graph);

  // Warm the cache with two sources.
  ASSERT_TRUE(service.distance(3).ok());
  ASSERT_TRUE(service.distance(42).ok());

  UpdateBatch batch;
  batch.insert(3, 499);
  batch.insert(499, 498);
  const auto nbrs = graph->out_neighbors(7);
  if (!nbrs.empty()) batch.erase(7, nbrs[0]);
  const std::uint64_t v2 = service.apply_updates(batch);
  EXPECT_GT(v2, v1);
  EXPECT_EQ(service.graph_version(), v2);

  // Oracle over the post-update edge set.
  EdgeList updated(500);
  for (vid_t u = 0; u < 500; ++u) {
    for (const vid_t w : graph->out_neighbors(u)) {
      if (!nbrs.empty() && u == 7 && w == nbrs[0]) continue;
      updated.add_unchecked(u, w);
    }
  }
  if (!graph->has_edge(3, 499)) updated.add_unchecked(3, 499);
  if (!graph->has_edge(499, 498)) updated.add_unchecked(499, 498);
  const CsrGraph oracle = CsrGraph::from_edges(updated);

  for (const vid_t s : {vid_t{3}, vid_t{42}, vid_t{499}, vid_t{7}}) {
    const QueryResult r = service.distance(s);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.graph_version, v2);
    const BFSResult ref = bfs_serial(oracle, s);
    ASSERT_EQ(*r.levels, ref.level) << "source " << s;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_GE(stats.edges_inserted, 1u);
  // Both cached rows were either repaired in place, revalidated as
  // unaffected, or dropped for a too-large cone — never silently kept.
  EXPECT_EQ(stats.results_repaired + stats.results_revalidated +
                stats.cone_recomputes,
            2u);
}

TEST(BfsServiceDynamic, PathQueriesUseDeltaEdges) {
  // 0 -> 1 -> 2; insert the shortcut 0 -> 2 and delete 1 -> 2: the
  // shortest path must use the spilled insert and never the dead edge.
  EdgeList el(3);
  el.add_unchecked(0, 1);
  el.add_unchecked(1, 2);
  ServiceConfig config;
  config.num_threads = 2;
  BfsService service(config);
  service.register_graph(make_graph(el));

  UpdateBatch batch;
  batch.insert(0, 2);
  batch.erase(1, 2);
  service.apply_updates(batch);

  const QueryResult r = service.path(0, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.distance, 1);
  EXPECT_EQ(r.path, (std::vector<vid_t>{0, 2}));
}

TEST(BfsServiceDynamic, SameContentReregistrationKeepsCacheRows) {
  const EdgeList el = gen::erdos_renyi(300, 1800, 29);
  const auto graph = make_graph(el);
  ServiceConfig config;
  config.num_threads = 2;
  BfsService service(config);
  service.register_graph(graph);
  ASSERT_TRUE(service.distance(9).ok());  // fills the cache

  // Same content, different representation (pre-reordered copy): the
  // reorder-invariant fingerprint keeps the row serving hits.
  service.register_graph(std::make_shared<const CsrGraph>(
      graph->reorder(ReorderPolicy::kDegreeSort)));
  const QueryResult hit = service.distance(9);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);

  // Different content evicts.
  EdgeList changed = el;
  changed.add_unchecked(0, 299);
  service.register_graph(make_graph(changed));
  const QueryResult miss = service.distance(9);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.cache_hit);
}

TEST(BfsServiceDynamic, SameSizeEditedReregistrationEvictsCache) {
  const EdgeList el = gen::erdos_renyi(300, 1800, 29);
  ServiceConfig config;
  config.num_threads = 2;
  BfsService service(config);
  service.register_graph(make_graph(el));
  ASSERT_TRUE(service.distance(9).ok());  // fills the cache

  // Reroute a single edge, keeping n and m: only a full-adjacency
  // fingerprint distinguishes the two graphs, and the stale cached row
  // must not survive the re-registration.
  const CsrGraph plain = CsrGraph::from_edges(el);
  const Edge e0 = el.edges().front();
  vid_t new_dst = 0;
  while (new_dst == e0.src || new_dst == e0.dst ||
         plain.has_edge(plain.to_internal(e0.src),
                        plain.to_internal(new_dst))) {
    ++new_dst;
  }
  EdgeList moved(300);
  bool replaced = false;
  for (const Edge& e : el.edges()) {
    if (!replaced && e.src == e0.src && e.dst == e0.dst) {
      moved.add_unchecked(e0.src, new_dst);
      replaced = true;
    } else {
      moved.add_unchecked(e.src, e.dst);
    }
  }
  service.register_graph(make_graph(moved));
  const QueryResult r = service.distance(9);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(*r.levels, bfs_serial(CsrGraph::from_edges(moved), 9).level);
}

TEST(BfsServiceDynamic, CompactionRebuildsEnginesOverFreshCsr) {
  // A microscopic compact threshold folds every batch into a fresh CSR;
  // queries after the swap must still match the oracle (MsBfsSession
  // and the single-source engine are rebuilt, not left on the retired
  // base graph) across several update/query cycles.
  const EdgeList el = gen::erdos_renyi(300, 1500, 41);
  ServiceConfig config;
  config.num_threads = 2;
  config.compact_threshold = 1e-6;
  config.reorder = ReorderPolicy::kHubCluster;
  BfsService service(config);
  service.register_graph(make_graph(el));

  EdgeList edges = el;
  Xoshiro256 rng(77);
  for (int round = 0; round < 3; ++round) {
    UpdateBatch batch;
    for (int k = 0; k < 5; ++k) {
      const vid_t u = static_cast<vid_t>(rng.next_below(300));
      const vid_t v = static_cast<vid_t>(rng.next_below(300));
      batch.insert(u, v);
      const CsrGraph probe = CsrGraph::from_edges(edges);
      if (!probe.has_edge(u, v)) edges.add_unchecked(u, v);
    }
    service.apply_updates(batch);
    const CsrGraph oracle = CsrGraph::from_edges(edges);
    for (const vid_t s : {vid_t{2}, vid_t{150}}) {
      const QueryResult r = service.distance(s);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(*r.levels, bfs_serial(oracle, s).level)
          << "round " << round << " source " << s;
    }
  }
  EXPECT_GE(service.stats().compactions, 3u);
}

TEST(BfsServiceDynamic, UpdateWithoutGraphThrows) {
  BfsService service;
  UpdateBatch batch;
  batch.insert(0, 1);
  EXPECT_THROW(service.apply_updates(std::move(batch)),
               std::invalid_argument);
}

}  // namespace
}  // namespace optibfs
