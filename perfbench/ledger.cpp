#include "ledger.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

}  // namespace

void Outcome::stamp(std::string key, double value) {
  provenance.emplace_back(std::move(key), json_number(value));
}

void emit(const Outcome& out) {
  for (const std::string& e : out.errors) std::cerr << "check failed: " << e << "\n";
  std::ostringstream prov;
  prov << "{\"provenance\": {";
  for (std::size_t i = 0; i < out.provenance.size(); ++i) {
    prov << (i ? ", " : "") << "\"" << out.provenance[i].first
         << "\": " << out.provenance[i].second;
  }
  prov << "}}";
  std::ostringstream res;
  res << "{\"correct\": " << (out.correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    res << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  res << "}}";
  std::cout << prov.str() << "\n" << res.str() << std::endl;
}

void emit_and_exit(const Outcome& out) {
  emit(out);
  std::cerr.flush();
  std::_Exit(0);
}

Watchdog::Watchdog(double seconds, std::string what, std::function<void()> on_stall)
    : what_(std::move(what)),
      on_stall_(std::move(on_stall)),
      thread_([this, seconds] {
        std::unique_lock lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                          [this] { return done_; })) {
          std::cerr << "stall: " << what_ << " did not return within "
                    << seconds << " s" << std::endl;
          on_stall_();
          std::_Exit(3);  // on_stall_ does not return
        }
      }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t request)
    : t_(t) {
  if (!t_->enabled_) return;
  const int parent = t_->open_.empty() ? -1 : t_->open_.back();
  id_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back({name, t_->now_ms(), 0.0, parent, request});
  t_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  t_->spans_[static_cast<std::size_t>(id_)].end_ms = t_->now_ms();
  t_->open_.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(
      {name, ms_between(origin_, start), ms_between(origin_, end), -1, request});
}

double Tracer::mean_ms(const std::string& name) const {
  double total = 0.0;
  std::uint64_t count = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end_ms - s.start_ms;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Detached request spans overlap everything; they are not layers.
    if (spans_[i].parent < 0 && std::string(spans_[i].name) == "driver.request") {
      continue;
    }
    by_layer[layer_of(spans_[i].name)] += self[i];
  }
  return by_layer;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"layer\": \"" << layer_of(s.name) << "\", \"start_ms\": "
        << json_number(s.start_ms) << ", \"end_ms\": " << json_number(s.end_ms)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}";
  }
  out << "\n]}\n";
}

std::string layer_of(const std::string& span_name) {
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  if (prefix == "msbfs" || prefix == "engine") return "core";
  if (prefix == "finalize") return "service";
  if (prefix == "kernel") return "kernels";
  return prefix;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

namespace {
cpu_set_t g_initial_mask;
int g_pinned_cpu = -1;
}  // namespace

int pin_to_one_cpu() {
  if (sched_getaffinity(0, sizeof(g_initial_mask), &g_initial_mask) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &g_initial_mask)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  g_pinned_cpu = cpu;
  return cpu;
}

void unpin() {
  if (g_pinned_cpu >= 0) {
    (void)sched_setaffinity(0, sizeof(g_initial_mask), &g_initial_mask);
  }
}

int pinned_cpu() { return g_pinned_cpu; }

CpuTimes read_cpu_times(int cpu) {
  std::ifstream in("/proc/stat");
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  CpuTimes t;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name != want) continue;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    for (int field = 0; field < 8; ++field) {
      std::uint64_t v = 0;
      if (!(fields >> v)) break;
      t.total += v;
      if (field == 7) t.steal = v;
    }
    break;
  }
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

void Load::add_phase(double nominal_s, double until_last_s, double cpu_s, double wall_s,
                     const CpuTimes& before, const CpuTimes& after) {
  seconds += nominal_s;
  elapsed_s += until_last_s;
  cpu_s_ += cpu_s;
  wall_s_ += wall_s;
  host_.total += after.total - before.total;
  host_.steal += after.steal - before.steal;
  steal_pct = perfbench::steal_pct(CpuTimes{}, host_);
  cpu_share = wall_s_ > 0.0 ? cpu_s_ / wall_s_ : 0.0;
}

double Load::throughput() const {
  const auto answered = static_cast<double>(
      std::count_if(op_ms.begin(), op_ms.end(), [](double ms) { return ms != kFailed; }));
  const double span = stalled ? std::max(seconds, elapsed_s) : elapsed_s;
  return span > 0.0 ? answered / span : 0.0;
}

double Load::latency_quantile(double q) const {
  if (stalled || op_ms.empty()) return kFailed;
  return quantile(op_ms, q);
}

optibfs::UpdateBatch UpdateStream::next(
    const std::vector<std::pair<vid_t, vid_t>>& extra) {
  optibfs::UpdateBatch batch;
  for (int k = 0; k < kInserts; ++k) {
    const vid_t u = static_cast<vid_t>(rng_.next_below(n_));
    const vid_t v = static_cast<vid_t>(rng_.next_below(n_));
    if (u == v) continue;
    batch.insert(u, v);
    live_.emplace_back(u, v);
  }
  for (const auto& [u, v] : extra) {
    batch.insert(u, v);
    live_.emplace_back(u, v);
  }
  while (live_.size() > kLive) {
    batch.erase(live_.front().first, live_.front().second);
    live_.erase(live_.begin());
  }
  return batch;
}

std::shared_ptr<const optibfs::CsrGraph> Mirror::at(std::uint64_t version) {
  while (applied_ < log_.size() && log_[applied_].first <= version) {
    graph_->apply(log_[applied_].second);
    ++applied_;
    dirty_ = true;
  }
  if (dirty_) {
    cached_ = std::make_shared<const optibfs::CsrGraph>(
        optibfs::CsrGraph::from_edges(graph_->snapshot().to_edge_list()));
    dirty_ = false;
  }
  return cached_;
}

}  // namespace perfbench
