// perfbench: the optibfs perf ledger.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Prints a provenance line, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or
// the per-layer ones with --trace 1). Exits 2 on bad arguments.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

double number(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= 0)) usage("bad value for " + flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(number(flag, value));
    } else if (flag == "--seconds") {
      args.seconds = number(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (!have_workload || std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds <= 0) usage("--seconds must be positive");
  // Pin glibc's mmap threshold at 256 KiB. Left dynamic, it rises after
  // the first large free, the 0.5 MB level arrays of the two big-graph
  // serving workloads then come from fragmenting heaps, and the same
  // run's peak RSS wandered between 231 and 295 MB; pinned, repeats agree
  // within 0.1%. Rows under 256 KiB stay on the heap: with the 128 KiB
  // default, mapping and unmapping each copied 128-160 KB row had tripled
  // a scale-out workload's update latency.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  // Everything the timed phases run shares one CPU: the driver, the
  // services' schedulers and their one-thread teams. The host takes whole
  // 4 ms slices from a vCPU (steal reached 15% of CPU time); a team
  // spread over two vCPUs waits at every barrier for whichever one the
  // host has taken, and a hand-off to another vCPU waits for the host to
  // run it, so the figures then followed the host's load, not the program.
  perfbench::pin_to_one_cpu();
  const perfbench::Outcome out = perfbench::run_workload(args);
  perfbench::emit(out);
  return 0;
}
