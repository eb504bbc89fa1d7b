// Tuning knobs shared by every parallel BFS in the library.
#pragma once

#include <cstdint>

#include "graph/types.hpp"

namespace optibfs {

namespace telemetry {
class FlightRecorder;
}

/// Level traversal direction policy for the optimistic engine family.
enum class DirectionMode {
  /// Classic level-synchronous top-down expansion (the paper's mode).
  kTopDown,
  /// Beamer-style direction optimization on top of the optimistic
  /// engines: at every level barrier the alpha/beta rule may flip the
  /// whole level to a bottom-up step in which each thread scans only
  /// its owned vertex slice of the transpose for unvisited vertices.
  /// Bottom-up steps are owner-computes and need no locks and no atomic
  /// RMW at all — stricter even than the paper's optimistic discipline.
  kHybrid,
};

/// How the scale-free variants (BFS_WS / BFS_WSL) treat phase 2 (the
/// hotspot adjacency lists deferred from phase 1).
enum class Phase2Mode {
  /// Each hotspot's adjacency list is split into p static chunks; thread
  /// i explores chunk i (the paper's primary variant).
  kChunked,
  /// Threads work-steal halves of the remaining adjacency ranges (the
  /// paper's "other variant", reported as usually slower).
  kStealing,
};

struct BFSOptions {
  /// Worker threads (p). Queues, steal blocks, and output queues are all
  /// sized by this.
  int num_threads = 4;

  /// Segment size s for the centralized fetch. 0 = adaptive: the paper
  /// re-computes s after each dispatch from the remaining frontier size
  /// and p (see kAdaptiveSegmentDivisor in bfs_engine.cpp).
  std::int64_t segment_size = 0;

  /// Degree above which a vertex counts as a hotspot for BFS_WS/BFS_WSL.
  /// 0 = adaptive (a multiple of the mean degree).
  vid_t degree_threshold = 0;

  /// The constant c in the paper's MAX_STEAL = c * p * log2(p) failed
  /// steal attempts before a thread quits the level (balls-and-bins
  /// bound; c > 1). Also used for BFS_DL's c * j * log2(j) pool probes.
  int steal_attempt_factor = 2;

  /// Number of centralized queue pools j for BFS_DL (1 = BFS_CL-like,
  /// num_threads = fully distributed). Clamped to [1, num_threads].
  int dl_pools = 1;

  /// Phase-2 strategy for the scale-free variants.
  Phase2Mode phase2 = Phase2Mode::kChunked;

  /// Direction policy. kHybrid enables Beamer-style alpha/beta switching
  /// between the optimistic top-down machinery and atomics-free
  /// owner-computes bottom-up levels. Registry names with an `_H` suffix
  /// (BFS_CL_H, ...) set this for you.
  DirectionMode direction_mode = DirectionMode::kTopDown;

  /// Beamer's alpha: switch top-down -> bottom-up when the frontier's
  /// outgoing edge count exceeds (unexplored edges) / alpha. 0 disables
  /// bottom-up entirely (kHybrid then behaves like kTopDown).
  int alpha = 15;

  /// Beamer's beta: once bottom-up, switch back to top-down when the
  /// next frontier shrinks below n / beta vertices. 0 means "switch
  /// back immediately after one bottom-up level".
  int beta = 18;

  /// Adaptive segment sizing that targets a fixed *edge* budget per
  /// dispatch instead of a fixed vertex count: segment_size must be 0
  /// (adaptive) for this to take effect. Uses
  /// FrontierQueues::total_in_edges() and the level's mean frontier
  /// degree so skewed levels hand out fewer high-degree vertices per
  /// fetch. Measured in bench_ablation's segment_size sweep.
  bool edge_balanced_segments = false;

  /// The clearing trick: readers zero each consumed slot so overlapping
  /// or stale segments abort early. Disabling it (ablation) keeps
  /// results correct but lets duplicate exploration balloon.
  bool clear_slots = true;

  /// §IV-D duplicate suppression: record the output-queue id of each
  /// discovered vertex with an arbitrary concurrent write; at the next
  /// level a copy is only explored from the recorded queue. No locks or
  /// atomic RMW needed.
  bool parent_claim_dedup = false;

  /// §IV-D alternative: claim discoveries through an atomic visited
  /// bitmap (fetch_or), exactly Baseline2's mechanism. Eliminates
  /// duplicate queue entries entirely but reintroduces the atomic RMW
  /// the lock-free engines exist to avoid — provided so the trade the
  /// paper describes for dense graphs can be measured on OUR engines.
  bool visited_bitmap_dedup = false;

  /// §IV-C NUMA policy: steal victims / migrate pools socket-locally
  /// first. Uses `topology`; meaningless when topology has one socket.
  bool numa_aware = false;

  /// Socket layout for the NUMA policy. The default 1 simulates a
  /// single socket; any other positive value simulates that many.
  /// 0 = detect the physical machine from /sys/devices/system/node
  /// (Topology::physical) so socket ids are real NUMA nodes — degrades
  /// to flat on machines without sysfs. Ignored unless numa_aware.
  int num_sockets = 1;

  /// Pin each worker to a logical cpu of its socket
  /// (pthread_setaffinity_np via the physical topology's cpu map).
  /// Best-effort: failed pins leave workers floating; the count that
  /// stuck is reported in telemetry/ServiceStats. Combined with the
  /// engines' first-touch initialization this is what makes placement
  /// real instead of advisory. No-op off Linux.
  bool pin_threads = false;

  /// Back the engines' large per-run buffers (stamped level arena,
  /// parent scratch, packed-word bitmaps, frontier-queue slot slabs,
  /// and the CSR adjacency) with transparent huge pages via
  /// madvise(MADV_HUGEPAGE). Honored only when the kernel's THP mode
  /// is `always` or `madvise`; telemetry records both advises issued
  /// and an AnonHugePages-delta estimate of pages actually promoted.
  bool huge_pages = false;

  /// Hybrid small-frontier shortcut: when the level's frontier holds
  /// fewer than this many vertices, thread 0 drains it serially and the
  /// other workers skip straight to the barrier. Levels with one or two
  /// vertices are common on high-diameter graphs, and parallel dispatch
  /// there is pure overhead (the insight behind Hong et al.'s
  /// serial/parallel hybrid, applied to our engines). 0 disables.
  std::int64_t serial_frontier_cutoff = 0;

  /// Software-prefetch lookahead for the locality layer (DESIGN.md
  /// §3.1a): while scanning a neighbor range, issue
  /// `__builtin_prefetch(&level[nbrs[i + prefetch_distance]])` so the
  /// random level-array probe is in flight before the discover touches
  /// it; the bottom-up transpose pull prefetches the same way. 0
  /// disables (the ablation baseline). Typical useful values: 4-16.
  int prefetch_distance = 0;

  /// Bottom-up word-scan: consult the 64-vertices-per-word unvisited
  /// summary bitmap so `consume_level_bottom_up` skips whole words of
  /// finished/unreached vertices instead of probing level[] per vertex.
  /// Maintained with plain stores on thread-owned words (stricter than
  /// the clearing trick's benign races). On by default; the flag exists
  /// for the bench_locality ablation.
  bool bottom_up_word_scan = true;

  /// Asynchronous engine (BFS_ASYNC) only: subqueues per thread (k) in
  /// the relaxed d-choice multiqueue — the queue has p*k subqueues
  /// total, each with a single producer. More subqueues lower push/pop
  /// contention but weaken the queue's depth ordering, which shows up
  /// as wasted relaxations. Clamped to >= 1.
  int async_subqueues = 4;

  /// Asynchronous engine only: work items per published batch. Larger
  /// batches amortize the one claim CAS per pop but delay visibility of
  /// freshly settled vertices (more redundant relaxation). Clamped to
  /// [1, 4096].
  int async_batch_size = 64;

  /// Test-only (termination-protocol coverage): the last worker thread
  /// of BFS_ASYNC sleeps this many milliseconds before touching any
  /// work, simulating a straggler that must still observe termination
  /// and exit cleanly. 0 (always, outside tests) disables.
  int async_straggler_ms = 0;

  /// Kernel suite (src/kernels/) only: damping factor for the
  /// delta-PageRank residual push. The classic 0.85 unless an
  /// experiment says otherwise.
  double pr_damping = 0.85;

  /// Kernel suite only: residual threshold below which delta-PageRank
  /// stops pushing a vertex's mass. Smaller = more rounds, tighter
  /// ranks. Reference comparisons allow an O(epsilon * n) slack.
  double pr_epsilon = 1e-7;

  /// Kernel suite only: hard cap on substrate rounds (0 = no cap).
  /// A safety valve for tests that want to assert convergence happens
  /// within a budget rather than hang on a regression.
  int kernel_max_rounds = 0;

  /// Storage tier (DESIGN.md §12): hot-residency cap in bytes for the
  /// graph's adjacency arrays when it is mmap-backed. Engines and the
  /// kernel substrate apply it to the graph's storage backend at
  /// construction; intervals touched beyond the cap evict the coldest
  /// charged interval (madvise/fadvise DONTNEED). 0 = uncapped. No-op
  /// on heap-backed graphs.
  std::uint64_t storage_budget_bytes = 0;

  /// Record the frontier size of every level into
  /// BFSResult::level_sizes (tiny cost; off by default to keep
  /// measurement allocations stable).
  bool record_level_sizes = false;

  /// Seed for the randomized policies (victim and pool selection).
  std::uint64_t seed = 1;

  /// Optional flight recorder (telemetry/recorder.hpp). When non-null,
  /// engines / MS-BFS sessions / the query service acquire per-thread
  /// event-ring slots from it at setup time and fold their end-of-run
  /// counter snapshots into its totals. The recorder must outlive every
  /// engine constructed with these options. Ignored (harmlessly) by
  /// builds configured with OPTIBFS_TELEMETRY=OFF.
  telemetry::FlightRecorder* telemetry = nullptr;
};

}  // namespace optibfs
