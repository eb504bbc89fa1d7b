// Optimistic vs atomic-RMW ablation for the beyond-BFS kernel suite
// (DESIGN.md section 11): CC / KCORE / MIS / PRDELTA against their
// `_RMW` twins, which run the identical edgemap schedule but pay an
// atomic read-modify-write at every update the optimistic variants
// handle with a plain relaxed store plus a quiescent repair pass.
//
// The paper's thesis, restated for kernels: on the monotone-update
// class, letting benign races happen and repairing at barriers beats
// paying per-edge atomicity. The table reports per-kernel best-of-reps
// runtime on three structural classes (scale-free rmat, power-law, 2-D
// mesh) and the summary counts how many kernels the optimistic
// discipline wins, loses and ties (a harmonic-mean speedup within ±10%
// of 1.0 is a wash) at the configured thread count.
//
// A second section measures carrying answers across graph versions
// (DESIGN.md §11.5): for CC, KCORE and PRDELTA — the kernels the
// service memoizes; MIS has no carry rule — on each class, 32
// ledger-shaped update batches (8 random inserts, rolling deletes of
// the bench's own inserts once 64 are live), each answered by carrying
// the previous version's answer and, for comparison, from scratch on
// the flattened CSR ∪ delta. The flatten (GraphSnapshot::flatten, the
// service's kernel view) is timed on its own, in the flatten_ms
// column, and in neither the carried nor the scratch figure. Every
// carried answer is checked against the serial references; a mismatch
// exits non-zero.
//
// At one thread PRDELTA and PRDELTA_RMW run one schedule (every share
// is in the pusher's own slice), so their gap there is the RMW
// instructions alone; at more threads it also holds the schedule
// difference of cross-slice shares, seen at once by PRDELTA_RMW and
// after the barrier fold by PRDELTA.
//
// `--smoke` runs one tiny verified cell per kernel pair and the carry
// section on tiny graphs (ctest wiring).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "harness/timing.hpp"
#include "kernels/carry.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/pagerank_delta.hpp"
#include "kernels/reference.hpp"
#include "runtime/rng.hpp"

namespace {

using namespace optibfs;

constexpr std::uint64_t kSeed = 20130527;

/// Best-of-reps timing for one kernel on one graph. Verification (zoo
/// oracle per family) runs once, outside the timed reps.
ExperimentCell measure_kernel(const Workload& w, const std::string& name,
                              int threads, int reps, bool verify) {
  BFSOptions options;
  options.num_threads = threads;
  options.seed = kSeed;
  ExperimentCell cell;
  cell.graph = w.name;
  cell.algorithm = name;
  cell.threads = threads;
  cell.measurement.sources = reps;
  cell.measurement.min_ms = 0.0;
  double total = 0.0;
  kernels::KernelResult result;
  for (int rep = 0; rep < reps; ++rep) {
    result = {};
    Timer timer;
    kernels::make_kernel(name, w.graph, options)->run(result);
    const double ms = timer.elapsed_ms();
    total += ms;
    if (rep == 0 || ms < cell.measurement.min_ms) {
      cell.measurement.min_ms = ms;
    }
    cell.measurement.max_ms = std::max(cell.measurement.max_ms, ms);
  }
  cell.measurement.mean_ms = total / static_cast<double>(reps);
  cell.measurement.counters = result.counters;
  if (verify) {
    const CsrGraph& g = w.graph;
    bool ok = true;
    if (name == "CC" || name == "CC_RMW") {
      ok = result.labels == kernels::cc_reference(g);
    } else if (name == "KCORE" || name == "KCORE_RMW") {
      ok = result.core == kernels::kcore_reference(g);
    } else if (name == "MIS" || name == "MIS_RMW") {
      std::string why;
      ok = kernels::mis_validate(g, result.labels, &why);
    } else {
      const auto ref = kernels::pagerank_reference(g, options.pr_damping);
      const double bound = options.pr_epsilon *
                               static_cast<double>(g.num_vertices()) /
                               (1.0 - options.pr_damping) +
                           1e-12;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (std::abs(result.rank[v] - ref[v]) > bound) ok = false;
      }
    }
    if (!ok) {
      std::cerr << name << " failed verification on " << w.name << "\n";
      std::exit(1);
    }
  }
  return cell;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

/// One kernel's carry-vs-scratch figures on one graph class.
struct CarryRow {
  std::string kernel, graph;
  double scratch_ms = 0.0, carried_ms = 0.0;        // medians per batch
  double flatten_ms = 0.0;  // median per batch, shared by the graph's rows
  double scratch_rounds = 0.0, carried_rounds = 0.0;
  int fallbacks = 0;  // carries past their bound (then recomputed)
};

[[noreturn]] void carry_mismatch(const std::string& kernel,
                                 const std::string& graph, int batch) {
  std::cerr << "carried " << kernel << " disagrees with the reference on "
            << graph << " after batch " << batch << "\n";
  std::exit(1);
}

/// 32 ledger-shaped batches on `w`: every version's CC, KCORE and
/// PRDELTA answer carried from the previous version, and recomputed
/// from scratch for comparison. Exits on a wrong carried answer.
std::vector<CarryRow> measure_carry(const Workload& w, int threads) {
  constexpr int kBatches = 32;
  constexpr int kInserts = 8;
  constexpr std::size_t kLive = 64;
  BFSOptions options;
  options.num_threads = threads;
  options.seed = kSeed;
  // Non-owning: the workload outlives the dynamic graph built over it.
  const std::shared_ptr<const CsrGraph> base(std::shared_ptr<void>(), &w.graph);
  base->transpose();
  DynamicGraph dyn(base);
  const vid_t n = base->num_vertices();

  GraphSnapshot held = dyn.snapshot();
  kernels::KernelResult cc, core, pr;
  kernels::make_kernel("CC", *base, options)->run(cc);
  kernels::make_kernel("KCORE", *base, options)->run(core);
  kernels::make_kernel("PRDELTA", *base, options)->run(pr);
  std::vector<vid_t> sizes(n, 0);
  for (const vid_t label : cc.labels) ++sizes[label];

  const char* const names[3] = {"CC", "KCORE", "PRDELTA"};
  std::vector<double> scratch_ms[3], carried_ms[3], scratch_rounds[3],
      carried_rounds[3], flatten_ms;
  int fallbacks[3] = {0, 0, 0};
  Xoshiro256 rng(kSeed ^ n);
  std::vector<std::pair<vid_t, vid_t>> live;
  for (int b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    for (int k = 0; k < kInserts; ++k) {
      const auto u = static_cast<vid_t>(rng.next_below(n));
      const auto v = static_cast<vid_t>(rng.next_below(n));
      if (u == v) continue;
      batch.insert(u, v);
      live.emplace_back(u, v);
    }
    while (live.size() > kLive) {
      batch.erase(live.front().first, live.front().second);
      live.erase(live.begin());
    }
    const BatchSummary summary = dyn.apply(batch);
    std::vector<std::pair<vid_t, vid_t>> touched = summary.inserts;
    touched.insert(touched.end(), summary.deletes.begin(), summary.deletes.end());
    const GraphSnapshot now = dyn.snapshot();
    Timer flatten_timer;
    const CsrGraph flat = now.flatten();
    flatten_ms.push_back(flatten_timer.elapsed_ms());

    for (int k = 0; k < 3; ++k) {
      kernels::KernelResult scratch;
      Timer timer;
      kernels::make_kernel(names[k], flat, options)->run(scratch);
      scratch_ms[k].push_back(timer.elapsed_ms());
      scratch_rounds[k].push_back(scratch.rounds);
    }
    // A carry past its bound pays the recompute too, as the service
    // does; the rounds column then shows the recompute's.
    {  // CC
      Timer timer;
      const auto changes = kernels::net_changes(held, now, touched);
      cc.rounds = 0;
      if (!kernels::carry_components(held, now, changes, cc.labels, sizes)) {
        ++fallbacks[0];
        kernels::make_kernel("CC", flat, options)->run(cc);
        std::fill(sizes.begin(), sizes.end(), 0);
        for (const vid_t label : cc.labels) ++sizes[label];
      }
      carried_ms[0].push_back(timer.elapsed_ms());
      carried_rounds[0].push_back(cc.rounds);
    }
    {  // KCORE
      Timer timer;
      const auto changes = kernels::net_changes(held, now, touched);
      core.rounds = 0;
      if (!kernels::carry_core(now, changes, core.core)) {
        ++fallbacks[1];
        kernels::make_kernel("KCORE", flat, options)->run(core);
      }
      carried_ms[1].push_back(timer.elapsed_ms());
      carried_rounds[1].push_back(core.rounds);
    }
    {  // PRDELTA: residual correction, then seeded push rounds
      Timer timer;
      const auto changes = kernels::net_changes(held, now, touched);
      std::vector<double> residual = pr.residual;
      kernels::carry_residual(held, now, changes, options.pr_damping, pr.rank,
                              residual);
      kernels::PageRankDeltaKernel kernel(flat, options, /*use_rmw=*/false,
                                          TeamHandle(threads, false));
      kernel.run_from(pr.rank, std::move(residual), pr);
      carried_ms[2].push_back(timer.elapsed_ms());
      carried_rounds[2].push_back(pr.rounds);
    }

    std::vector<std::uint64_t> count(n, 0);
    const auto cc_ref = kernels::cc_reference(flat);
    for (const vid_t label : cc_ref) ++count[label];
    for (vid_t v = 0; v < n; ++v) {
      if (cc.labels[v] != cc_ref[v] || sizes[cc.labels[v]] != count[cc_ref[v]]) {
        carry_mismatch("CC", w.name, b);
      }
    }
    if (core.core != kernels::kcore_reference(flat)) {
      carry_mismatch("KCORE", w.name, b);
    }
    const auto pr_ref = kernels::pagerank_reference(flat, options.pr_damping);
    const double bound = options.pr_epsilon * static_cast<double>(n) /
                             (1.0 - options.pr_damping) +
                         1e-12;
    for (vid_t v = 0; v < n; ++v) {
      if (std::abs(pr.rank[v] - pr_ref[v]) > bound ||
          std::abs(pr.residual[v]) > options.pr_epsilon) {
        carry_mismatch("PRDELTA", w.name, b);
      }
    }
    held = now;
  }

  std::vector<CarryRow> rows;
  for (int k = 0; k < 3; ++k) {
    CarryRow row;
    row.kernel = names[k];
    row.graph = w.name;
    row.scratch_ms = median(scratch_ms[k]);
    row.carried_ms = median(carried_ms[k]);
    row.flatten_ms = median(flatten_ms);
    row.scratch_rounds = median(scratch_rounds[k]);
    row.carried_rounds = median(carried_rounds[k]);
    row.fallbacks = fallbacks[k];
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }

  bench::print_banner(
      "kernel suite: optimistic vs atomic-RMW",
      "extension beyond the paper: the optimistic discipline applied to "
      "CC / k-core / MIS / delta-PageRank (DESIGN.md section 11)");

  const int threads = smoke ? 2 : env_threads(8);
  const int reps = smoke ? 1 : 3;
  const bool verify = smoke || env_verify();

  std::vector<Workload> graphs;
  graphs.push_back(
      {"rmat_scale_free", "Graph500 rmat: hub-contended labels/degrees",
       CsrGraph::from_edges(gen::rmat(smoke ? 10 : 14, 16, kSeed))});
  graphs.push_back(
      {"power_law", "configuration-model power law (gamma 2.2)",
       CsrGraph::from_edges(gen::power_law(smoke ? 2000 : 60000,
                                           smoke ? 12000 : 480000, 2.2,
                                           kSeed))});
  {
    const vid_t side = smoke ? 40 : 300;
    graphs.push_back({"grid_mesh", "2-D mesh: no hubs, long convergence",
                      CsrGraph::from_edges(gen::grid2d(side, side))});
  }
  for (const Workload& w : graphs) bench::print_workload_line(w);
  std::cout << "\n";

  std::vector<ExperimentCell> cells;
  // Per (kernel, graph) optimistic-vs-RMW speedup; the summary reduces
  // each kernel over graphs by harmonic mean (HM punishes a regression
  // on any one class harder than an arithmetic mean hides it).
  struct PairRow {
    std::string kernel, graph;
    double opt_ms = 0.0, rmw_ms = 0.0;
    std::uint64_t rmw_ops = 0;
  };
  std::vector<PairRow> pairs;
  for (const Workload& w : graphs) {
    for (const std::string& kernel : kernels::optimistic_kernels()) {
      const ExperimentCell opt =
          measure_kernel(w, kernel, threads, reps, verify);
      const ExperimentCell rmw =
          measure_kernel(w, kernel + "_RMW", threads, reps, verify);
      PairRow row;
      row.kernel = kernel;
      row.graph = w.name;
      row.opt_ms = opt.measurement.min_ms;
      row.rmw_ms = rmw.measurement.min_ms;
      row.rmw_ops = rmw.measurement.counters[telemetry::kKernelRmwOps];
      pairs.push_back(row);
      cells.push_back(opt);
      cells.push_back(rmw);
    }
  }

  Table table(
      {"graph", "kernel", "optimistic_ms", "rmw_ms", "speedup", "rmw_ops"});
  for (const PairRow& row : pairs) {
    const std::size_t r = table.add_row();
    table.set(r, 0, row.graph);
    table.set(r, 1, row.kernel);
    table.set(r, 2, row.opt_ms, 3);
    table.set(r, 3, row.rmw_ms, 3);
    table.set(r, 4, row.rmw_ms / std::max(row.opt_ms, 1e-9), 2);
    table.set(r, 5, row.rmw_ops);
  }
  table.print(std::cout);
  std::cout << "\n";

  // One best-of-reps cell per graph cannot call a kernel within a few
  // percent of 1.0 either way (CC has read 0.94-1.01x across runs of
  // one tree), so a kernel wins or loses only outside this band around
  // 1.0; inside it the pair is a wash.
  constexpr double kWashBand = 0.10;
  int optimistic_wins = 0, rmw_wins = 0, washes = 0;
  std::string per_kernel = "[";
  for (std::size_t k = 0; k < kernels::optimistic_kernels().size(); ++k) {
    const std::string& kernel = kernels::optimistic_kernels()[k];
    double inv_sum = 0.0;
    int count = 0;
    for (const PairRow& row : pairs) {
      if (row.kernel != kernel) continue;
      inv_sum += row.opt_ms / std::max(row.rmw_ms, 1e-9);
      ++count;
    }
    const double hm_speedup =
        inv_sum <= 0.0 ? 0.0 : static_cast<double>(count) / inv_sum;
    const bool wins = hm_speedup > 1.0 + kWashBand;
    const bool loses = hm_speedup < 1.0 - kWashBand;
    optimistic_wins += wins ? 1 : 0;
    rmw_wins += loses ? 1 : 0;
    washes += wins || loses ? 0 : 1;
    const char* verdict = wins ? "optimistic wins" : loses ? "RMW wins" : "wash";
    std::cout << kernel << ": HM optimistic-vs-RMW speedup " << hm_speedup
              << "x — " << verdict << "\n";
    per_kernel += std::string(k == 0 ? "" : ", ") + "{\"kernel\": \"" +
                  kernel + "\", \"hm_speedup\": " +
                  std::to_string(hm_speedup) + ", \"verdict\": \"" +
                  verdict + "\"}";
  }
  per_kernel += "]";
  std::cout << "optimistic discipline wins " << optimistic_wins << "/"
            << kernels::optimistic_kernels().size() << " kernels at "
            << threads << " threads (RMW wins " << rmw_wins << ", "
            << washes << " within ±" << kWashBand * 100 << "% of 1.0)\n";

  std::cout << "\ncarrying answers across versions: 32 ledger-shaped "
               "batches, median per batch (the flatten timed apart)\n";
  std::vector<CarryRow> carry;
  for (const Workload& w : graphs) {
    for (const CarryRow& row : measure_carry(w, threads)) carry.push_back(row);
  }
  Table carry_table({"graph", "kernel", "flatten_ms", "scratch_ms",
                     "carried_ms", "speedup", "scratch_rounds",
                     "carried_rounds", "fallbacks"});
  std::string carry_json = "[";
  for (const CarryRow& row : carry) {
    const double speedup = row.scratch_ms / std::max(row.carried_ms, 1e-9);
    const std::size_t r = carry_table.add_row();
    carry_table.set(r, 0, row.graph);
    carry_table.set(r, 1, row.kernel);
    carry_table.set(r, 2, row.flatten_ms, 3);
    carry_table.set(r, 3, row.scratch_ms, 3);
    carry_table.set(r, 4, row.carried_ms, 3);
    carry_table.set(r, 5, speedup, 2);
    carry_table.set(r, 6, row.scratch_rounds, 0);
    carry_table.set(r, 7, row.carried_rounds, 0);
    carry_table.set(r, 8, static_cast<std::uint64_t>(row.fallbacks));
    carry_json += std::string(carry_json.size() == 1 ? "" : ", ") +
                  "{\"graph\": \"" + row.graph + "\", \"kernel\": \"" +
                  row.kernel + "\", \"flatten_ms\": " +
                  std::to_string(row.flatten_ms) + ", \"scratch_ms\": " +
                  std::to_string(row.scratch_ms) + ", \"carried_ms\": " +
                  std::to_string(row.carried_ms) + ", \"scratch_rounds\": " +
                  std::to_string(row.scratch_rounds) +
                  ", \"carried_rounds\": " +
                  std::to_string(row.carried_rounds) +
                  ", \"fallbacks\": " + std::to_string(row.fallbacks) + "}";
  }
  carry_json += "]";
  carry_table.print(std::cout);
  std::cout << "every carried answer matched the serial references\n";

  const std::string summary =
      "{\"threads\": " + std::to_string(threads) +
      ", \"optimistic_wins\": " + std::to_string(optimistic_wins) +
      ", \"rmw_wins\": " + std::to_string(rmw_wins) +
      ", \"washes\": " + std::to_string(washes) +
      ", \"wash_band\": " + std::to_string(kWashBand) +
      ", \"kernels\": " + std::to_string(kernels::optimistic_kernels().size()) +
      ", \"per_kernel\": " + per_kernel + ", \"carry\": " + carry_json + "}";
  const bool wrote =
      bench::maybe_write_json("kernels", argc, argv, cells, summary);
  return wrote ? 0 : 1;
}
