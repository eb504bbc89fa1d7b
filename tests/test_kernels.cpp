// Beyond-BFS kernel suite (DESIGN.md §11): edgemap substrate + CC /
// k-core / MIS / delta-PageRank, optimistic and _RMW ablation twins.
//
// The invariants under test: every kernel matches its serial reference
// on the correctness zoo at any thread count and under any reorder
// policy (results are in original vertex ids, so a reordered run must
// be bit-identical to the plain run for the deterministic kernels);
// the optimistic variants issue ZERO atomic RMW except MIS's
// documented conflict-demotion CAS; and kernels stay oracle-correct
// across DynamicGraph apply() batches (recompute-on-snapshot repair),
// and so do answers carried from one graph version to the next.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "kernels/carry.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/pagerank_delta.hpp"
#include "kernels/reference.hpp"
#include "scaleout/scaleout_service.hpp"
#include "service/bfs_service.hpp"
#include "test_util.hpp"

namespace optibfs {
namespace {

using kernels::GraphKernel;
using kernels::KernelResult;
using kernels::make_kernel;
using telemetry::kKernelConflictDemotes;
using telemetry::kKernelRepairPasses;
using telemetry::kKernelRmwOps;
using telemetry::kKernelRounds;

BFSOptions kernel_options(int threads) {
  BFSOptions opts;
  opts.num_threads = threads;
  opts.seed = 42;
  // Pure hang guard: every assertion below fails loudly on an
  // unconverged result long before this budget matters.
  opts.kernel_max_rounds = 200000;
  return opts;
}

KernelResult run_kernel(const std::string& name, const CsrGraph& g,
                        const BFSOptions& opts) {
  KernelResult out;
  make_kernel(name, g, opts)->run(out);
  return out;
}

/// Asserts one kernel result against its serial reference on `base`
/// semantics (g may be a reordered copy of base — references index by
/// original id, so they agree by construction).
void expect_matches_reference(const std::string& name, const CsrGraph& g,
                              const KernelResult& r, const BFSOptions& opts,
                              const std::string& context) {
  const vid_t n = g.num_vertices();
  if (name == "CC" || name == "CC_RMW") {
    const auto ref = kernels::cc_reference(g);
    ASSERT_EQ(r.labels.size(), n) << context;
    for (vid_t v = 0; v < n; ++v)
      ASSERT_EQ(r.labels[v], ref[v]) << context << " vertex " << v;
  } else if (name == "KCORE" || name == "KCORE_RMW") {
    const auto ref = kernels::kcore_reference(g);
    ASSERT_EQ(r.core.size(), n) << context;
    for (vid_t v = 0; v < n; ++v)
      ASSERT_EQ(r.core[v], ref[v]) << context << " vertex " << v;
  } else if (name == "MIS" || name == "MIS_RMW") {
    std::string why;
    ASSERT_TRUE(kernels::mis_validate(g, r.labels, &why))
        << context << ": " << why;
  } else {
    const auto ref = kernels::pagerank_reference(g, opts.pr_damping);
    ASSERT_EQ(r.rank.size(), n) << context;
    // Truncating pushes below epsilon leaves at most eps residual per
    // vertex; propagating all of it bounds the error by eps*n/(1-d).
    const double bound =
        opts.pr_epsilon * static_cast<double>(n) / (1.0 - opts.pr_damping) +
        1e-12;
    for (vid_t v = 0; v < n; ++v)
      ASSERT_NEAR(r.rank[v], ref[v], bound) << context << " vertex " << v;
  }
}

TEST(KernelRegistry, NamesAndConstruction) {
  const auto g = CsrGraph::from_edges(gen::path(8));
  const BFSOptions opts = kernel_options(2);
  ASSERT_EQ(kernels::all_kernels().size(), 8u);
  ASSERT_EQ(kernels::optimistic_kernels().size(), 4u);
  for (const std::string& name : kernels::all_kernels()) {
    EXPECT_TRUE(kernels::is_kernel(name));
    auto k = make_kernel(name, g, opts);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), name);
  }
  EXPECT_FALSE(kernels::is_kernel("BFS_CL"));
  EXPECT_THROW(make_kernel("NOPE", g, opts), std::invalid_argument);
}

TEST(KernelZoo, AllKernelsMatchReferences) {
  const BFSOptions opts = kernel_options(4);
  // Two inputs beyond the shared zoo, whose BFS tests start from
  // vertex 0: the empty graph, and 500 disjoint two-vertex components.
  std::vector<test::NamedGraph> inputs = test::correctness_graph_zoo();
  inputs.push_back({"empty", CsrGraph{}});
  EdgeList pairs(1000);
  for (vid_t v = 0; v < 1000; v += 2) pairs.add_unchecked(v, v + 1);
  pairs.symmetrize();
  inputs.push_back({"pairs_500", CsrGraph::from_edges(pairs)});
  for (const auto& [gname, g] : inputs) {
    for (const std::string& name : kernels::all_kernels()) {
      const KernelResult r = run_kernel(name, g, opts);
      expect_matches_reference(name, g, r, opts, name + " on " + gname);
    }
  }
}

TEST(KernelZoo, ThreadCountSweep) {
  const auto g = CsrGraph::from_edges(gen::erdos_renyi(2000, 8000, 7));
  for (int threads : {1, 3, 8}) {
    const BFSOptions opts = kernel_options(threads);
    for (const std::string& name : kernels::all_kernels()) {
      const KernelResult r = run_kernel(name, g, opts);
      expect_matches_reference(name, g, r, opts,
                               name + " p=" + std::to_string(threads));
    }
  }
}

TEST(KernelZoo, ReorderInvariance) {
  // Kernels on a reordered graph answer in original ids; for the
  // deterministic kernels that means bit-identical results.
  const auto base =
      CsrGraph::from_edges(gen::power_law(2000, 12000, 2.2, 13));
  const BFSOptions opts = kernel_options(4);
  for (const ReorderPolicy policy :
       {ReorderPolicy::kDegreeSort, ReorderPolicy::kHubCluster}) {
    const CsrGraph reordered = base.reorder(policy);
    for (const std::string& name : kernels::all_kernels()) {
      const KernelResult r = run_kernel(name, reordered, opts);
      expect_matches_reference(name, reordered, r, opts,
                               name + " under reorder");
      if (name == "CC" || name == "CC_RMW") {
        const KernelResult plain = run_kernel(name, base, opts);
        EXPECT_EQ(r.labels, plain.labels) << name;
      }
      if (name == "KCORE" || name == "KCORE_RMW") {
        const KernelResult plain = run_kernel(name, base, opts);
        EXPECT_EQ(r.core, plain.core) << name;
      }
    }
  }
}

TEST(KernelDiscipline, OptimisticKernelsIssueNoRmwExceptMisDemotion) {
  // The §11 exemption census, asserted: CC / KCORE / PRDELTA run with
  // zero atomic RMW; MIS's only RMWs are conflict-demotion CASes. The
  // _RMW ablations must actually pay RMW traffic on a contended graph.
  const auto g = CsrGraph::from_edges(gen::rmat(10, 8, 11));
  const BFSOptions opts = kernel_options(8);
  for (const std::string name : {"CC", "KCORE", "PRDELTA"}) {
    const KernelResult r = run_kernel(name, g, opts);
    EXPECT_EQ(r.counters[kKernelRmwOps], 0u) << name;
  }
  const KernelResult mis = run_kernel("MIS", g, opts);
  EXPECT_GE(mis.counters[kKernelRmwOps],
            mis.counters[kKernelConflictDemotes]);
  for (const std::string name :
       {"CC_RMW", "KCORE_RMW", "MIS_RMW", "PRDELTA_RMW"}) {
    const KernelResult r = run_kernel(name, g, opts);
    EXPECT_GT(r.counters[kKernelRmwOps], 0u) << name;
  }
}

TEST(KernelDiscipline, RepairMachineryRuns) {
  // The optimistic variants must actually take their verify/recount
  // passes (at least the final clean one that certifies the fixpoint).
  const auto g = CsrGraph::from_edges(gen::erdos_renyi(2000, 8000, 7));
  const BFSOptions opts = kernel_options(8);
  for (const std::string name : {"CC", "KCORE", "MIS"}) {
    const KernelResult r = run_kernel(name, g, opts);
    EXPECT_GE(r.counters[kKernelRepairPasses], 1u) << name;
    EXPECT_GE(r.counters[kKernelRounds], 1u) << name;
  }
}

TEST(KernelZoo, PageRankMassConservation) {
  // Sanity independent of the reference: with no dangling vertices the
  // rank mass must approach n (the fixpoint of the full system).
  const auto g = CsrGraph::from_edges(gen::grid2d(16, 16));
  const BFSOptions opts = kernel_options(4);
  for (const char* name : {"PRDELTA", "PRDELTA_RMW"}) {
    const KernelResult r = run_kernel(name, g, opts);
    double sum = 0.0;
    for (double x : r.rank) sum += x;
    EXPECT_NEAR(sum, static_cast<double>(g.num_vertices()),
                opts.pr_epsilon * static_cast<double>(g.num_vertices()) /
                    (1.0 - opts.pr_damping) * 10)
        << name;
  }
}

// ---- kernels × dynamic graphs (satellite): randomized oracle ----

TEST(KernelDynamic, CcAndCoreStayCorrectAcrossUpdateBatches) {
  // Recompute-on-snapshot repair: after every apply() the kernels run
  // on the materialized CSR∪delta view and must match the references,
  // under two reorder policies (the service's registration paths).
  std::mt19937_64 rng(2024);
  auto base = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(600, 2400, 33)));
  DynamicGraph dyn(base);
  const vid_t n = base->num_vertices();
  const BFSOptions opts = kernel_options(4);

  std::vector<std::pair<vid_t, vid_t>> inserted;
  for (int batch = 0; batch < 6; ++batch) {
    UpdateBatch b;
    std::uniform_int_distribution<vid_t> pick(0, n - 1);
    for (int i = 0; i < 40; ++i) {
      const vid_t u = pick(rng), v = pick(rng);
      if (!inserted.empty() && i % 4 == 3) {
        const auto [du, dv] =
            inserted[rng() % inserted.size()];
        b.erase(du, dv);
      } else if (!dyn.snapshot().has_edge(u, v)) {
        b.insert(u, v);
        inserted.push_back({u, v});
      }
    }
    dyn.apply(b);

    const CsrGraph merged =
        CsrGraph::from_edges(dyn.snapshot().to_edge_list());
    for (const ReorderPolicy policy :
         {ReorderPolicy::kNone, ReorderPolicy::kHubCluster}) {
      CsrGraph reordered;
      if (policy != ReorderPolicy::kNone) reordered = merged.reorder(policy);
      const CsrGraph& view =
          policy == ReorderPolicy::kNone ? merged : reordered;
      const std::string ctx =
          "batch " + std::to_string(batch) + " policy " +
          std::string(reorder_policy_name(policy));
      for (const std::string name : {"CC", "KCORE"}) {
        const KernelResult r = run_kernel(name, view, opts);
        expect_matches_reference(name, view, r, opts, name + " " + ctx);
      }
    }
  }
}

// ---- kernel-typed service queries (DESIGN.md §11 wiring) ----

ServiceConfig kernel_service_config() {
  ServiceConfig config;
  config.num_threads = 4;
  config.bfs.seed = 42;
  return config;
}

TEST(KernelService, TypedQueriesMemoizeAndMatchReferences) {
  auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(500, 2000, 9)));
  const auto cc_ref = kernels::cc_reference(*graph);
  const auto core_ref = kernels::kcore_reference(*graph);
  BfsService service(kernel_service_config());
  service.register_graph(graph);

  const QueryResult c0 = service.components_of(7);
  ASSERT_TRUE(c0.ok());
  EXPECT_EQ(c0.component, cc_ref[7]);
  std::uint64_t expected_size = 0;
  for (vid_t v = 0; v < graph->num_vertices(); ++v) {
    if (cc_ref[v] == cc_ref[7]) ++expected_size;
  }
  EXPECT_EQ(c0.component_size, expected_size);
  EXPECT_FALSE(c0.cache_hit);  // first kernel query: memo was empty

  const QueryResult c1 = service.components_of(13);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1.component, cc_ref[13]);
  EXPECT_TRUE(c1.cache_hit);  // same version: shares the memoized CC run

  const QueryResult k0 = service.core_number(7);
  ASSERT_TRUE(k0.ok());
  EXPECT_EQ(k0.core, core_ref[7]);

  const QueryResult top = service.rank_topk(5);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.topk.size(), 5u);
  for (std::size_t i = 1; i < top.topk.size(); ++i) {
    EXPECT_GE(top.topk[i - 1].second, top.topk[i].second);
  }
  const auto pr_ref = kernels::pagerank_reference(*graph, 0.85);
  double max_rank = 0.0;
  for (double r : pr_ref) max_rank = std::max(max_rank, r);
  EXPECT_NEAR(top.topk[0].second, max_rank, 1e-3);

  EXPECT_FALSE(service.rank_topk(0).ok());  // topk < 1 is kInvalid

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.kernel_queries, 4u);  // the invalid one never queued
  EXPECT_GE(stats.kernel_cache_hits, 1u);
  EXPECT_EQ(stats.kernel_recomputes, 3u);  // CC + KCORE + PRDELTA, once each
}

TEST(KernelService, MemoCarriesAcrossUpdates) {
  auto base = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(400, 1600, 21)));
  BfsService service(kernel_service_config());
  service.register_graph(base);
  ASSERT_TRUE(service.components_of(5).ok());

  UpdateBatch batch;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<vid_t> pick(0, 399);
  for (int i = 0; i < 25; ++i) batch.insert(pick(rng), pick(rng));
  // Mirror the batch locally so the oracle sees the same edge set the
  // service serves after apply_updates.
  DynamicGraph mirror(base);
  mirror.apply(batch);
  const CsrGraph merged =
      CsrGraph::from_edges(mirror.snapshot().to_edge_list());
  const auto cc_ref = kernels::cc_reference(merged);
  const auto core_ref = kernels::kcore_reference(merged);

  service.apply_updates(batch);
  const QueryResult after = service.components_of(5);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);  // a new version's memo starts unfilled
  EXPECT_EQ(after.component, cc_ref[5]);
  const QueryResult core = service.core_number(5);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core.core, core_ref[5]);
  // CC carries the first version's labels across the batch; KCORE was
  // never filled before, so it has nothing to carry and recomputes.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.kernel_recomputes, 2u);  // CC at v1, KCORE at v2
  EXPECT_EQ(stats.kernel_carries, 1u);     // CC at v2
  EXPECT_EQ(stats.kernel_carry_fallbacks, 0u);
}

TEST(KernelService, ReorderAutoSelectionProbesDegreeTail) {
  // Scale-free and big enough for the registration probe: the service
  // should pick hub_cluster on its own and still answer kernel queries
  // in original ids.
  auto power = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::power_law(40000, 160000, 2.1, 3)));
  const ServiceConfig config = kernel_service_config();
  BfsService scale_free(config);
  scale_free.register_graph(power);
  EXPECT_EQ(scale_free.stats().reorder_policy, "hub_cluster");
  const auto cc_ref = kernels::cc_reference(*power);
  const QueryResult r = scale_free.components_of(11);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.component, cc_ref[11]);

  // Mesh-like: no degree tail, served unreordered.
  auto grid = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::grid2d(200, 200)));
  BfsService mesh(config);
  mesh.register_graph(grid);
  EXPECT_EQ(mesh.stats().reorder_policy, "none");

  // An explicit policy always beats the probe.
  ServiceConfig forced_config = config;
  forced_config.reorder = ReorderPolicy::kDegreeSort;
  BfsService forced(forced_config);
  forced.register_graph(grid);
  EXPECT_EQ(forced.stats().reorder_policy, "degree_sort");
}

TEST(KernelResultShape, OnlyRelevantFieldsFilled) {
  const auto g = CsrGraph::from_edges(gen::star(64));
  const BFSOptions opts = kernel_options(2);
  const KernelResult cc = run_kernel("CC", g, opts);
  EXPECT_TRUE(cc.core.empty());
  EXPECT_TRUE(cc.rank.empty());
  EXPECT_EQ(cc.name, "CC");
  EXPECT_GT(cc.rounds, 0);
  const KernelResult pr = run_kernel("PRDELTA", g, opts);
  EXPECT_TRUE(pr.labels.empty());
  EXPECT_TRUE(pr.core.empty());
  EXPECT_EQ(pr.rank.size(), g.num_vertices());
}

// ---- carrying answers across graph versions (DESIGN.md §11.5) ----

/// A base graph with what the carry rules must get exactly right: a
/// deep core hierarchy, multi-copy edges (a delete masks every copy)
/// and self-loops.
EdgeList carry_base(vid_t n, eid_t m, std::uint64_t seed) {
  EdgeList el = gen::power_law(n, m, 2.3, seed);
  for (vid_t i = 0; i + 1 < n && i < 60; i += 3) {
    el.add_unchecked(i, i + 1);
    el.add_unchecked(i, i + 1);
  }
  el.add_unchecked(4, 4);
  el.add_unchecked(9, 9);
  return el;
}

/// A random batch against `g`'s edges: inserts that join components,
/// deletes of existing edges (splits), of carry_base's doubled edges
/// (every copy goes) and their re-inserts, and self-loops both ways.
UpdateBatch carry_batch(const GraphSnapshot& g, std::mt19937_64& rng,
                        int size) {
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  UpdateBatch batch;
  for (int i = 0; i < size; ++i) {
    const vid_t u = pick(rng);
    const vid_t doubled = static_cast<vid_t>(3 * (rng() % 20));
    switch (rng() % 8) {
      case 0:
      case 1:
        batch.insert(u, pick(rng));
        break;
      case 2:
        batch.insert(u, u);
        break;
      case 3:
        batch.erase(u, u);
        break;
      case 4:
        if (rng() % 2 == 0) batch.erase(doubled, doubled + 1);
        else batch.insert(doubled, doubled + 1);
        break;
      default: {
        std::vector<vid_t> out;
        g.for_each_out(u, [&](vid_t w) { out.push_back(w); });
        if (!out.empty()) batch.erase(u, out[rng() % out.size()]);
        break;
      }
    }
  }
  return batch;
}

/// Checks one version's carried answers against the references.
void expect_carried_matches(const CsrGraph& g, const std::vector<vid_t>& labels,
                            const std::vector<vid_t>& sizes,
                            const std::vector<std::uint32_t>& core,
                            const KernelResult& pr, const BFSOptions& opts,
                            const std::string& ctx) {
  const vid_t n = g.num_vertices();
  const auto cc_ref = kernels::cc_reference(g);
  std::vector<std::uint64_t> count(n, 0);
  for (const vid_t label : cc_ref) ++count[label];
  const auto core_ref = kernels::kcore_reference(g);
  const auto pr_ref = kernels::pagerank_reference(g, opts.pr_damping);
  const double bound =
      opts.pr_epsilon * static_cast<double>(n) / (1.0 - opts.pr_damping) +
      1e-12;
  for (vid_t v = 0; v < n; ++v) {
    ASSERT_EQ(labels[v], cc_ref[v]) << ctx << " CC vertex " << v;
    ASSERT_EQ(sizes[labels[v]], count[cc_ref[v]]) << ctx << " size " << v;
    ASSERT_EQ(core[v], core_ref[v]) << ctx << " core vertex " << v;
    ASSERT_NEAR(pr.rank[v], pr_ref[v], bound) << ctx << " rank vertex " << v;
    ASSERT_LE(std::abs(pr.residual[v]), opts.pr_epsilon)
        << ctx << " residual vertex " << v;
  }
}

TEST(KernelCarry, RulesMatchReferencesAtEveryVersion) {
  // The carry rules alone, version after version: every third version
  // is skipped (carried later in one step with the batches joined), and
  // a low compaction threshold puts a compaction inside the chain.
  const BFSOptions opts = kernel_options(4);
  for (const ReorderPolicy policy :
       {ReorderPolicy::kNone, ReorderPolicy::kHubCluster}) {
    const std::string name(reorder_policy_name(policy));
    CsrGraph csr = CsrGraph::from_edges(carry_base(2000, 6000, 71));
    if (policy != ReorderPolicy::kNone) csr = csr.reorder(policy);
    DynamicGraph::Config config;
    config.reorder = policy;
    config.compact_threshold = 0.01;
    DynamicGraph dyn(std::make_shared<const CsrGraph>(std::move(csr)), config);

    GraphSnapshot held = dyn.snapshot();
    const CsrGraph first = CsrGraph::from_edges(held.to_edge_list());
    std::vector<vid_t> labels = kernels::cc_reference(first);
    std::vector<vid_t> sizes(labels.size(), 0);
    for (const vid_t label : labels) ++sizes[label];
    std::vector<std::uint32_t> core = kernels::kcore_reference(first);
    KernelResult pr = run_kernel("PRDELTA", first, opts);

    std::mt19937_64 rng(policy == ReorderPolicy::kNone ? 5 : 6);
    std::vector<std::pair<vid_t, vid_t>> touched;
    int compactions = 0;
    for (int version = 1; version <= 24; ++version) {
      const BatchSummary summary = dyn.apply(carry_batch(dyn.snapshot(), rng, 10));
      compactions += summary.compacted ? 1 : 0;
      touched.insert(touched.end(), summary.inserts.begin(), summary.inserts.end());
      touched.insert(touched.end(), summary.deletes.begin(), summary.deletes.end());
      if (version % 3 == 1) continue;  // nobody asked at this version

      const std::string ctx = name + " version " + std::to_string(version);
      const GraphSnapshot now = dyn.snapshot();
      const auto changes = kernels::net_changes(held, now, touched);
      ASSERT_TRUE(kernels::carry_components(held, now, changes, labels, sizes))
          << ctx;
      ASSERT_TRUE(kernels::carry_core(now, changes, core)) << ctx;
      std::vector<double> residual = pr.residual;
      kernels::carry_residual(held, now, changes, opts.pr_damping, pr.rank,
                              residual);
      const CsrGraph flat = CsrGraph::from_edges(now.to_edge_list());
      kernels::PageRankDeltaKernel kernel(flat, opts, /*use_rmw=*/false,
                                          TeamHandle(opts.num_threads, false));
      kernel.run_from(pr.rank, std::move(residual), pr);
      ASSERT_NO_FATAL_FAILURE(
          expect_carried_matches(flat, labels, sizes, core, pr, opts, ctx));
      held = now;
      touched.clear();
    }
    EXPECT_GE(compactions, 1) << name << ": the chain must cross a compaction";
  }
}

TEST(KernelCarry, ServiceAnswersMatchReferencesAtEveryVersion) {
  // End to end through the serving core: two replicas of four threads
  // share each version's memo, versions without kernel queries are
  // carried over in one step, a compaction and a replace_graph land
  // mid-chain, and every vertex's answer is checked at every version
  // that was asked.
  for (const ReorderPolicy policy :
       {ReorderPolicy::kNone, ReorderPolicy::kHubCluster}) {
    const std::string name(reorder_policy_name(policy));
    scaleout::ScaleoutConfig config;
    config.replicas = 2;
    config.threads_per_replica = 4;
    config.reorder = policy;
    config.compact_threshold = 0.015;
    config.bfs.seed = 42;
    scaleout::ScaleoutService service(config);
    auto graph = std::make_shared<const CsrGraph>(
        CsrGraph::from_edges(carry_base(600, 1800, 17)));
    const auto tenant = service.register_tenant("carry", graph);
    auto mirror = std::make_unique<DynamicGraph>(graph);
    std::mt19937_64 rng(policy == ReorderPolicy::kNone ? 8 : 9);

    for (int version = 1; version <= 15; ++version) {
      if (version == 9) {
        graph = std::make_shared<const CsrGraph>(
            CsrGraph::from_edges(carry_base(600, 2000, 23)));
        service.replace_graph(tenant, graph);
        mirror = std::make_unique<DynamicGraph>(graph);
      }
      const UpdateBatch batch = carry_batch(mirror->snapshot(), rng, 8);
      mirror->apply(batch);
      service.apply_updates(tenant, batch);
      if (version % 3 == 1) continue;

      const std::string ctx = name + " version " + std::to_string(version);
      const CsrGraph flat = CsrGraph::from_edges(mirror->snapshot().to_edge_list());
      const vid_t n = flat.num_vertices();
      const auto cc_ref = kernels::cc_reference(flat);
      const auto core_ref = kernels::kcore_reference(flat);
      const BFSOptions defaults;
      const auto pr_ref = kernels::pagerank_reference(flat, defaults.pr_damping);
      Query top;
      top.kind = QueryKind::kRankTopK;
      top.topk = static_cast<int>(n);
      const QueryResult ranked = service.query(tenant, top);
      ASSERT_TRUE(ranked.ok()) << ctx;
      ASSERT_EQ(ranked.topk.size(), n) << ctx;
      const double bound = defaults.pr_epsilon * static_cast<double>(n) /
                               (1.0 - defaults.pr_damping) + 1e-12;
      for (const auto& [v, r] : ranked.topk) {
        ASSERT_NEAR(r, pr_ref[v], bound) << ctx << " rank vertex " << v;
      }
      // In waves the admission queue (max_queue) holds whole.
      for (vid_t first = 0; first < n; first += 256) {
        const vid_t last = std::min<vid_t>(n, first + 256);
        std::vector<std::future<QueryResult>> cc, core;
        for (vid_t v = first; v < last; ++v) {
          Query q;
          q.source = v;
          q.kind = QueryKind::kComponents;
          cc.push_back(service.submit(tenant, q));
          q.kind = QueryKind::kCoreNumber;
          core.push_back(service.submit(tenant, q));
        }
        for (vid_t v = first; v < last; ++v) {
          const QueryResult c = cc[v - first].get();
          const QueryResult k = core[v - first].get();
          ASSERT_TRUE(c.ok() && k.ok()) << ctx;
          ASSERT_EQ(c.component, cc_ref[v]) << ctx << " CC vertex " << v;
          ASSERT_EQ(c.component_size,
                    static_cast<std::uint64_t>(
                        std::count(cc_ref.begin(), cc_ref.end(), cc_ref[v])))
              << ctx << " size " << v;
          ASSERT_EQ(k.core, core_ref[v]) << ctx << " core vertex " << v;
        }
      }
    }
    // Each flavor starts from scratch twice (the first version asked
    // and the one after replace_graph) and is carried everywhere else,
    // barring a carry past its bound.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.kernel_recomputes, 6u + stats.kernel_carry_fallbacks)
        << name;
    EXPECT_GE(stats.kernel_carries, 3u * 6u) << name;
    EXPECT_GE(stats.compactions, 1u) << name;
  }
}

TEST(KernelCarry, DamagePastTheBoundRecomputes) {
  // A "batch" that is really a bulk load changes more pairs than a
  // carry takes on: every flavor falls back to a from-scratch run, and
  // the answers still match.
  auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::erdos_renyi(3000, 6000, 41)));
  BfsService service(kernel_service_config());
  service.register_graph(graph);
  ASSERT_TRUE(service.components_of(0).ok());
  ASSERT_TRUE(service.core_number(0).ok());
  ASSERT_TRUE(service.rank_topk(1).ok());

  UpdateBatch bulk;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<vid_t> pick(0, 2999);
  while (bulk.size() <= 2 * SharedKernelMemo::kMaxCarriedChanges) {
    bulk.insert(pick(rng), pick(rng));
  }
  DynamicGraph mirror(graph);
  mirror.apply(bulk);
  const CsrGraph merged = CsrGraph::from_edges(mirror.snapshot().to_edge_list());
  service.apply_updates(bulk);

  const QueryResult cc = service.components_of(11);
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(cc.component, kernels::cc_reference(merged)[11]);
  const QueryResult core = service.core_number(11);
  ASSERT_TRUE(core.ok());
  EXPECT_EQ(core.core, kernels::kcore_reference(merged)[11]);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.kernel_carries, 0u);
  EXPECT_EQ(stats.kernel_carry_fallbacks, 2u);
  EXPECT_EQ(stats.kernel_recomputes, 3u + 2u);
}

// ---- the kernel view of a live delta, and the PRDELTA writer rule ----

/// flatten()'s oracle: CSR ∪ delta through the edge list, rebuilt by
/// from_edges and relabeled into the base's internal order.
CsrGraph flatten_oracle(const GraphSnapshot& snap) {
  EdgeList el = snap.to_edge_list();
  const CsrGraph& base = snap.base();
  if (base.is_reordered()) {
    el.relabel(std::vector<vid_t>(base.perm().begin(), base.perm().end()));
  }
  return CsrGraph::from_edges(el);
}

void expect_flatten_matches(const GraphSnapshot& snap, const std::string& ctx) {
  const CsrGraph flat = snap.flatten();
  const CsrGraph want = flatten_oracle(snap);
  const CsrGraph& base = snap.base();
  EXPECT_EQ(flat.storage_kind(), storage::StorageKind::kHeap) << ctx;
  ASSERT_EQ(flat.num_vertices(), want.num_vertices()) << ctx;
  ASSERT_EQ(flat.num_edges(), snap.num_edges()) << ctx;
  ASSERT_TRUE(std::ranges::equal(flat.offsets(), want.offsets())) << ctx;
  ASSERT_TRUE(std::ranges::equal(flat.targets(), want.targets())) << ctx;
  for (vid_t v = 0; v < flat.num_vertices(); ++v) {
    ASSERT_TRUE(std::ranges::is_sorted(flat.out_neighbors(v)))
        << ctx << " row " << v;
  }
  ASSERT_TRUE(std::ranges::equal(flat.perm(), base.perm())) << ctx;
  ASSERT_TRUE(std::ranges::equal(flat.inv_perm(), base.inv_perm())) << ctx;
  EXPECT_EQ(flat.max_out_degree(), want.max_out_degree()) << ctx;
}

TEST(KernelView, FlattenEqualsTheEdgeListRebuild) {
  // Plain, hub-clustered and mmap'd hub-clustered bases, through
  // batches of spills, self-loops, masked multi-edges and their
  // re-inserts, plus take-backs of earlier spills.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_optibfs_flatten.bin"))
          .string();
  const EdgeList edges = carry_base(2000, 6000, 73);
  io::write_binary_csr(
      path, CsrGraph::from_edges(edges).reorder(ReorderPolicy::kHubCluster));
  io::CsrLoadOptions load;
  load.storage = storage::StorageKind::kMmap;
  std::vector<std::pair<std::string, std::shared_ptr<const CsrGraph>>> bases;
  bases.emplace_back("none",
                     std::make_shared<const CsrGraph>(CsrGraph::from_edges(edges)));
  bases.emplace_back("hub_cluster", std::make_shared<const CsrGraph>(
                                        CsrGraph::from_edges(edges).reorder(
                                            ReorderPolicy::kHubCluster)));
  bases.emplace_back("hub_cluster_mmap", std::make_shared<const CsrGraph>(
                                             io::read_binary_csr(path, load)));
  std::remove(path.c_str());
  ASSERT_EQ(bases.back().second->storage_kind(), storage::StorageKind::kMmap);

  for (const auto& [name, base] : bases) {
    DynamicGraph::Config config;
    config.compact_threshold = 0.0;  // keep every delta live
    DynamicGraph dyn(base, config);
    ASSERT_NO_FATAL_FAILURE(expect_flatten_matches(dyn.snapshot(), name + " clean"));

    std::mt19937_64 rng(9);
    std::vector<std::pair<vid_t, vid_t>> spilled;
    bool saw_spill = false, saw_mask = false, saw_take_back = false;
    for (int version = 1; version <= 16; ++version) {
      const GraphSnapshot prev = dyn.snapshot();
      UpdateBatch batch = carry_batch(prev, rng, 24);
      for (int k = 0; k < 3 && !spilled.empty(); ++k) {
        const std::size_t i = rng() % spilled.size();
        batch.erase(spilled[i].first, spilled[i].second);
        spilled.erase(spilled.begin() + static_cast<std::ptrdiff_t>(i));
      }
      const BatchSummary summary = dyn.apply(batch);
      spilled.insert(spilled.end(), summary.inserts.begin(), summary.inserts.end());
      const GraphSnapshot snap = dyn.snapshot();
      ASSERT_NO_FATAL_FAILURE(
          expect_flatten_matches(snap, name + " version " + std::to_string(version)));
      ASSERT_NE(snap.delta(), nullptr);
      saw_spill |= snap.delta()->spill_edges > 0;
      saw_mask |= snap.delta()->deleted_base_copies > 0;
      for (const auto& [u, v] : summary.deletes) {
        if (prev.delta() == nullptr) continue;
        const auto it = prev.delta()->extra_out.find(u);
        saw_take_back |= it != prev.delta()->extra_out.end() &&
                         std::ranges::find(it->second, v) != it->second.end();
      }
    }
    EXPECT_TRUE(saw_spill && saw_mask && saw_take_back) << name;
  }
}

/// max over v of |r - ((1-d)·1 + d·Pᵀrank - rank)| (dangling mass
/// dropped), ranks and residuals in original ids.
double invariant_gap(const CsrGraph& g, const KernelResult& pr, double d) {
  const vid_t n = g.num_vertices();
  std::vector<double> want(n, 1.0 - d);
  for (vid_t u = 0; u < n; ++u) {
    const auto nbrs = g.out_neighbors(u);
    if (nbrs.empty()) continue;
    const double share =
        d * pr.rank[g.to_original(u)] / static_cast<double>(nbrs.size());
    for (const vid_t w : nbrs) want[g.to_original(w)] += share;
  }
  double gap = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    gap = std::max(gap, std::abs(want[v] - pr.rank[v] - pr.residual[v]));
  }
  return gap;
}

TEST(KernelPrDelta, OneThreadScheduleIsTheRmwSchedule) {
  // One thread owns every vertex, so every PRDELTA share is pushed in
  // place: the schedule is PRDELTA_RMW's, round for round and bit for
  // bit, with no RMW issued.
  const CsrGraph g = CsrGraph::from_edges(gen::rmat(12, 8, 21));
  const BFSOptions opts = kernel_options(1);
  const KernelResult slab = run_kernel("PRDELTA", g, opts);
  const KernelResult rmw = run_kernel("PRDELTA_RMW", g, opts);
  EXPECT_EQ(slab.rounds, rmw.rounds);
  EXPECT_TRUE(slab.rank == rmw.rank);
  EXPECT_TRUE(slab.residual == rmw.residual);
  EXPECT_EQ(slab.counters[kKernelRmwOps], 0u);
  EXPECT_GT(rmw.counters[kKernelRmwOps], 0u);
}

TEST(KernelPrDelta, InPlacePushesKeepTheInvariant) {
  // From scratch and from a carried state (residuals of both signs),
  // on a plain and a reordered graph, at every thread count: at exit
  // r = (1-d)·1 + d·Pᵀrank - rank still holds and every |r| <= epsilon.
  const auto plain = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(carry_base(3000, 15000, 29)));
  const auto hubs =
      std::make_shared<const CsrGraph>(plain->reorder(ReorderPolicy::kHubCluster));
  for (const int p : {1, 2, 4}) {
    const BFSOptions opts = kernel_options(p);
    for (const auto& g : {plain, hubs}) {
      const std::string ctx = "p=" + std::to_string(p) +
                              (g->is_reordered() ? " hub_cluster" : " none");
      const KernelResult scratch = run_kernel("PRDELTA", *g, opts);
      EXPECT_LT(invariant_gap(*g, scratch, opts.pr_damping), 1e-9) << ctx;
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_reference("PRDELTA", *g, scratch, opts, ctx));

      // Carry the answer onto a graph with one hub's out-edges gone.
      DynamicGraph dyn(g);
      UpdateBatch batch;
      const GraphSnapshot before = dyn.snapshot();
      before.for_each_out(0, [&](vid_t w) { batch.erase(0, w); });
      for (vid_t v = 1; v < 40; ++v) batch.insert(v, 0);
      const BatchSummary summary = dyn.apply(batch);
      const GraphSnapshot after = dyn.snapshot();
      std::vector<std::pair<vid_t, vid_t>> touched = summary.inserts;
      touched.insert(touched.end(), summary.deletes.begin(), summary.deletes.end());
      std::vector<double> residual = scratch.residual;
      kernels::carry_residual(before, after,
                              kernels::net_changes(before, after, touched),
                              opts.pr_damping, scratch.rank, residual);
      const CsrGraph flat = after.flatten();
      KernelResult carried;
      kernels::PageRankDeltaKernel(flat, opts, /*use_rmw=*/false,
                                   TeamHandle(p, false))
          .run_from(scratch.rank, std::move(residual), carried);
      EXPECT_LT(invariant_gap(flat, carried, opts.pr_damping), 1e-9) << ctx;
      for (vid_t v = 0; v < flat.num_vertices(); ++v) {
        ASSERT_LE(std::abs(carried.residual[v]), opts.pr_epsilon) << ctx << " " << v;
      }
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_reference("PRDELTA", flat, carried, opts, ctx + " carried"));
    }
  }
}

}  // namespace
}  // namespace optibfs
