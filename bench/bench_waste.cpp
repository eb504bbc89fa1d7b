// Optimism waste accounting: how much work each engine variant redoes.
//
// The paper's optimistic discipline trades synchronization for
// duplicated work: racy segment fetches produce overlapping segments
// (duplicate pops), the clearing trick aborts them early (zero-slot
// reads), and lock-free steals reject stale or torn snapshots. The
// flight-recorder counters make every one of those events visible, and
// this bench reports them as *fractions* per engine variant:
//
//   dup_frac      duplicate pops / vertices explored — the share of
//                 frontier pops that were wasted re-exploration
//   reject_frac   (stale + invalid steal rejections) / steal attempts —
//                 how often the sanity check fired on a torn snapshot
//   zero_abort    zero-slot aborts / segments claimed — how often a
//                 claimed segment turned out to be already consumed
//   revisit_frac  revisits / edges scanned — neighbor checks that found
//                 an already-visited vertex (most are benign frontier
//                 overlap, not optimism waste, but they bound it)
//
// The clear_slots=false ablation rides along: without the clearing
// trick the duplicate fraction is the undamped cost of optimism
// (DESIGN.md §2 — the trick is what makes the trade worth it).
//
// JSON: --json <path> or OPTIBFS_JSON=1 writes BENCH_waste.json; each
// cell carries the full counter snapshot, and the summary block repeats
// the per-variant fractions.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "harness/json_writer.hpp"

namespace {

using namespace optibfs;

struct WasteRow {
  std::string variant;
  double dup_frac = 0.0;
  double reject_frac = 0.0;
  double zero_abort = 0.0;
  double revisit_frac = 0.0;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

WasteRow waste_of(const ExperimentCell& cell) {
  using namespace optibfs::telemetry;
  const CounterSnapshot& c = cell.measurement.counters;
  const StealStats& s = cell.measurement.steal_stats;
  WasteRow row;
  row.variant = cell.algorithm;
  row.dup_frac = ratio(c[kDuplicatePops], c[kVerticesExplored]);
  row.reject_frac = ratio(s.failed_stale_segment + s.failed_invalid_segment,
                          s.total_attempts());
  row.zero_abort = ratio(c[kZeroSlotAborts], c[kSegmentsClaimed]);
  row.revisit_frac = ratio(c[kRevisits], c[kEdgesScanned]);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_banner("Duplicate work and rejected segments per variant",
                      "extension (optimism waste, flight recorder)");

  const WorkloadConfig wconfig = workload_config_from_env();
  std::vector<Workload> workloads;
  for (const char* name : {"rmat_sparse", "wikipedia"}) {
    workloads.push_back(make_workload(name, wconfig));
    bench::print_workload_line(workloads.back());
  }
  std::cout << '\n';

  // Every lock-free optimistic variant, its hybrid sibling, and the
  // locked engines as a zero-duplicate control group.
  ExperimentConfig config = bench::default_config();
  config.algorithms = {"BFS_C",  "BFS_CL",   "BFS_DL",   "BFS_W",
                       "BFS_WL", "BFS_WS",   "BFS_WSL",  "BFS_CL_H",
                       "BFS_WSL_H"};
  auto cells = run_experiment(workloads, config);

  // Ablation rider: the same lock-free centralized engine with the
  // clearing trick off — duplicate segments run to completion instead
  // of aborting on the first zeroed slot.
  {
    ExperimentConfig ablation = config;
    ablation.algorithms = {"BFS_CL", "BFS_WSL"};
    ablation.base_options.clear_slots = false;
    for (ExperimentCell& cell : run_experiment(workloads, ablation)) {
      cell.algorithm += "_noclear";
      cells.push_back(std::move(cell));
    }
  }

  Table table({"graph", "variant", "dup_frac", "reject_frac", "zero_abort",
               "revisit_frac"});
  for (const ExperimentCell& cell : cells) {
    const WasteRow row = waste_of(cell);
    const std::size_t r = table.add_row();
    table.set(r, 0, cell.graph);
    table.set(r, 1, row.variant);
    table.set(r, 2, row.dup_frac, 4);
    table.set(r, 3, row.reject_frac, 4);
    table.set(r, 4, row.zero_abort, 4);
    table.set(r, 5, row.revisit_frac, 4);
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: the locked variants (BFS_C, BFS_W, "
               "BFS_WS) report zero duplicate pops — their claims are "
               "exact. The lock-free variants pay a small dup_frac that "
               "the clearing trick keeps small; the _noclear ablation "
               "shows the undamped price. reject_frac is nonzero only "
               "for the lock-free stealers (the paper's sanity check "
               "at work).\n";

  std::ostringstream summary;
  JsonWriter sw(summary);
  sw.begin_object();
  sw.key("fractions").begin_array();
  for (const ExperimentCell& cell : cells) {
    const WasteRow row = waste_of(cell);
    sw.begin_object();
    sw.key("graph").value(cell.graph);
    sw.key("variant").value(row.variant);
    sw.key("dup_frac").value(row.dup_frac);
    sw.key("reject_frac").value(row.reject_frac);
    sw.key("zero_abort").value(row.zero_abort);
    sw.key("revisit_frac").value(row.revisit_frac);
    sw.end_object();
  }
  sw.end_array();
  sw.end_object();
  const bool wrote =
      bench::maybe_write_json("waste", argc, argv, cells, summary.str());
  return wrote ? 0 : 1;
}
