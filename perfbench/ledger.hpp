// Shared plumbing of the perf-ledger benchmark: run arguments, the
// metric/outcome record printed at exit, an in-memory span tracer, load
// accounting, and small readers of /proc. Everything here runs on the
// single driver thread; the services under test own every other thread.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using optibfs::vid_t;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

constexpr double kFailed = std::numeric_limits<double>::infinity();

/// No answer for this long while operations are outstanding is a stall
/// (the slowest healthy operation, a social-serve query, takes ~0.2 s;
/// a graph-analytics round ~0.16 s).
constexpr auto kStallTimeout = std::chrono::seconds(5);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the result line plus a provenance line.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// key -> JSON value text (already quoted when a string).
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::string> errors;  ///< failed answer checks (stderr)

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void stamp(std::string key, const std::string& text) {
    provenance.emplace_back(std::move(key), "\"" + text + "\"");
  }
  void stamp(std::string key, double value);
};

/// Prints the provenance line and, last, the result line.
void emit(const Outcome& out);
/// emit() then terminate at once: used after a stall, so the stuck
/// service's threads are never joined.
[[noreturn]] void emit_and_exit(const Outcome& out);

/// In-memory spans recorded around the benchmark's calls into each
/// layer (name "<layer-ish>.<call>", start, end, parent, request id),
/// written out at exit. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  /// Nested span: its parent is the innermost open span.
  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(this, name, request);
  }
  /// Detached span with explicit bounds (a request's send-to-answer).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request);

  /// Mean duration of the spans called `name` (0 when there are none).
  double mean_ms(const std::string& name) const;
  /// Self time per layer: each nested span's duration minus its
  /// children's, summed under the layer its name maps to.
  std::map<std::string, double> self_ms_by_layer() const;
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_ms;
    double end_ms;
    int parent;
    std::uint64_t request;
  };
  double now_ms() const { return ms_since(origin_); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Maps a span name to the repository module it times.
std::string layer_of(const std::string& span_name);

/// Nearest-rank quantile; +inf entries (failed operations) sort last.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }
double mean(const std::vector<double>& xs);

/// Peak resident set (VmHWM) in MB (1e6 bytes).
double peak_rss_mb();

/// CPU time of this process in ms: the clock the end-to-end figures are
/// read on. Every thread of a timed phase shares one CPU
/// (pin_to_one_cpu), so this is that CPU's time less what the host took
/// from it (steal, which the guest kernel charges to no task) and less
/// what it sat idle.
double cpu_ms();

/// Pins the calling thread, and every thread it starts from then on (the
/// services' workers), to one CPU: the last one it may run on. Returns
/// that CPU, or -1 if the mask could not be set.
int pin_to_one_cpu();
/// Lets the calling thread, and the threads it starts from then on, run
/// on every CPU the process could use before pin_to_one_cpu().
void unpin();
/// The CPU pin_to_one_cpu() chose, or -1.
int pinned_cpu();

/// CPU jiffies of one CPU (or, for cpu < 0, all of them) from
/// /proc/stat, for the steal share.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times(int cpu);
double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// One timed phase's accounting. Every attempted operation is recorded
/// with its latency; failed ones have +inf latency, so they miss every
/// limit.
struct Load {
  std::vector<double> op_ms;
  std::vector<double> late_ms;    ///< send lateness against the schedule
  std::vector<double> update_ms;  ///< update submit -> version visible
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t stranded = 0;
  bool stalled = false;
  // Summed over the phases (add_phase). Times are on the CPU clock
  // (cpu_ms), except `seconds`: a stalled load's answers count over the
  // whole nominal sending period, however early the stall struck.
  double seconds = 0.0;    ///< the nominal sending periods
  double elapsed_s = 0.0;  ///< until each phase's last operation ended
  double steal_pct = 0.0;  ///< host steal on the pinned CPU, wall-clock %
  double cpu_share = 0.0;  ///< CPU-clock seconds per wall second

  /// Adds one phase's clocks: its nominal sending period, CPU-clock
  /// seconds until its last answer, its CPU and wall seconds, and the
  /// pinned CPU's /proc/stat times before and after it.
  void add_phase(double nominal_s, double until_last_s, double cpu_s, double wall_s,
                 const CpuTimes& before, const CpuTimes& after);

  void ok(double ms) {
    ++attempted;
    op_ms.push_back(ms);
  }
  void fail() {
    ++attempted;
    ++failed;
    op_ms.push_back(kFailed);
  }
  /// Answered operations per second until the last one ended (over the
  /// nominal sending period if the phase stalled).
  double throughput() const;
  /// Quantile over every operation of the phase, a failed one counting
  /// as +inf; +inf for a stalled phase.
  double latency_quantile(double q) const;

 private:
  double cpu_s_ = 0.0, wall_s_ = 0.0;
  CpuTimes host_;
};


/// Waits for `f` up to the stall timeout; false means it never came.
template <class T>
bool await(std::future<T>& f) {
  return f.wait_for(kStallTimeout) == std::future_status::ready;
}
template <class T>
bool is_ready(std::future<T>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Calls `on_stall`, which reports the run as stalled and ends the
/// process, if a blocking call (a setup, a registration, a replayed
/// traversal) has not returned within `seconds`: those calls cannot be
/// awaited with a timeout, and a hung team wave must not hang the run.
/// The guarded thread is stuck while `on_stall` runs; if the call
/// returns meanwhile, the destructor waits for the process to end.
class Watchdog {
 public:
  Watchdog(double seconds, std::string what, std::function<void()> on_stall);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string what_;
  std::function<void()> on_stall_;
  std::thread thread_;  ///< last: starts after the state it reads
};

/// Seeded stream helpers.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return optibfs::SplitMix64(seed ^ (salt * 0x9E3779B97F4A7C15ULL)).next();
}

/// Update batches shaped like the workloads': kInserts random edges
/// plus rolling deletes of this generator's own earlier inserts once
/// more than kLive of them are live.
class UpdateStream {
 public:
  static constexpr int kInserts = 8;
  static constexpr std::size_t kLive = 64;

  UpdateStream(vid_t n, std::uint64_t seed) : n_(n), rng_(seed) {}

  optibfs::UpdateBatch next(const std::vector<std::pair<vid_t, vid_t>>& extra = {});

 private:
  vid_t n_;
  optibfs::Xoshiro256 rng_;
  std::vector<std::pair<vid_t, vid_t>> live_;
};

/// Replays submitted update batches on a private DynamicGraph so a
/// sampled answer served at version V can be checked against a CSR
/// rebuilt from the snapshot at V. Through the timed phase it only logs
/// batches; its base graph is built and given after the peak RSS is read.
class Mirror {
 public:
  /// The batch that produced service version `version`, in apply order.
  void log(std::uint64_t version, optibfs::UpdateBatch batch) {
    log_.emplace_back(version, std::move(batch));
  }
  /// Starts the replay from `base`, the graph the service registered.
  void start(std::shared_ptr<const optibfs::CsrGraph> base) {
    graph_ = std::make_unique<optibfs::DynamicGraph>(std::move(base));
  }
  /// CSR of the edge set at service version `version` (original ids).
  /// Needs start(); versions must be requested in non-decreasing order.
  std::shared_ptr<const optibfs::CsrGraph> at(std::uint64_t version);

 private:
  std::unique_ptr<optibfs::DynamicGraph> graph_;
  std::vector<std::pair<std::uint64_t, optibfs::UpdateBatch>> log_;
  std::size_t applied_ = 0;
  std::shared_ptr<const optibfs::CsrGraph> cached_;
  bool dirty_ = true;
};

}  // namespace perfbench
