// Flight-recorder subsystem: ring wraparound/overflow accounting,
// per-thread counter aggregation under an oversubscribed pool, and
// Chrome-trace well-formedness (the exported JSON is parsed back by a
// minimal validator). The tracing-layer tests compile only in
// OPTIBFS_TELEMETRY=ON builds; the OFF build instead checks the no-op
// stubs (and tests/check_no_telemetry_symbols.cmake checks the library
// really contains no tracing code).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/msbfs.hpp"
#include "core/registry.hpp"
#include "graph/generators.hpp"
#include "runtime/fork_join_pool.hpp"
#include "service/bfs_service.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/recorder.hpp"

namespace optibfs {
namespace {

using enum telemetry::Counter;

// ---------------------------------------------------------------------------
// Minimal JSON validator (recursive descent). Accepts exactly the JSON
// grammar; returns false on any syntax error. Used to prove the
// exporters emit machine-parseable output without external deps.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *c) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// Counters (always compiled, both build modes)
// ---------------------------------------------------------------------------

TEST(Counters, NamesCoverEveryCounter) {
  for (std::uint32_t k = 0; k < telemetry::kNumCounters; ++k) {
    const char* name =
        telemetry::counter_name(static_cast<telemetry::Counter>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(Counters, SnapshotJsonParsesBack) {
  telemetry::CounterSnapshot snap;
  snap[kVerticesExplored] = 123;
  snap[kStealSuccess] = 7;
  const std::string json = snap.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"vertices_explored\":123"), std::string::npos);
  EXPECT_NE(json.find("\"steal_success\":7"), std::string::npos);
  // Zero counters are skipped by default...
  EXPECT_EQ(json.find("duplicate_pops"), std::string::npos);
  // ...but include_zero renders the full glossary.
  EXPECT_NE(snap.to_json(/*include_zero=*/true).find("duplicate_pops"),
            std::string::npos);
}

TEST(Counters, AggregationSumsSlabsUnderOversubscribedPool) {
  // 16 team members time-slicing far fewer cores: every slab is written
  // by exactly one activation, the join provides the happens-before,
  // and aggregate() must see every plain-stored increment.
  constexpr int kTeam = 16;
  telemetry::CounterRegistry registry(kTeam);
  ForkJoinPool pool(kTeam);
  pool.run_team(kTeam, [&](int tid) {
    std::uint64_t* ctr = registry.slab(tid);
    for (int i = 0; i <= tid; ++i) ++ctr[kVerticesExplored];
    ctr[kEdgesScanned] += 1000;
  });
  const telemetry::CounterSnapshot snap = registry.aggregate();
  EXPECT_EQ(snap[kVerticesExplored],
            static_cast<std::uint64_t>(kTeam * (kTeam + 1) / 2));
  EXPECT_EQ(snap[kEdgesScanned], std::uint64_t{1000} * kTeam);
  EXPECT_TRUE(snap.any());

  registry.reset();
  EXPECT_FALSE(registry.aggregate().any());
}

TEST(Counters, PoolExportsSchedulerCounters) {
  ForkJoinPool pool(4);
  pool.run_team(4, [](int) {});
  std::atomic<int> ran{0};
  pool.parallel_for(0, 1000, 10,
                    [&](std::int64_t lo, std::int64_t hi) {
                      ran.fetch_add(static_cast<int>(hi - lo));
                    });
  EXPECT_EQ(ran.load(), 1000);
  const telemetry::CounterSnapshot snap = pool.telemetry_counters();
  EXPECT_GE(snap[kPoolTeamSessions], 1u);
  EXPECT_GT(snap[kPoolTasksExecuted], 0u);
}

TEST(Counters, EngineSnapshotMatchesResultFields) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(10, 16, 5));
  BFSOptions options;
  options.num_threads = 8;
  auto engine = make_bfs("BFS_WSL", graph, options);
  BFSResult r;
  engine->run(0, r);
  // The legacy report fields are views over the snapshot — they must
  // agree with it exactly (one aggregation path, satellite invariant).
  EXPECT_EQ(r.counters[kVerticesExplored], r.vertices_explored);
  EXPECT_EQ(r.counters[kEdgesScanned], r.edges_scanned);
  EXPECT_EQ(r.counters[kDuplicatePops], r.duplicate_explorations());
  EXPECT_EQ(r.counters[kStealSuccess], r.steal_stats.successful);
  EXPECT_EQ(r.counters[kLevelsBottomUp], r.bottom_up_levels);
  EXPECT_GT(r.counters[kLevelsTopDown], 0u);
}

TEST(Counters, MsBfsWaveCountsDuplicatePopsDirectly) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(10, 16, 5));
  BFSOptions options;
  options.num_threads = 4;
  const std::vector<vid_t> sources{0, 1, 2, 3};
  const MsBfsResult out = multi_source_bfs(graph, sources, options);
  EXPECT_EQ(out.counters[kWaves], 1u);
  EXPECT_EQ(out.counters[kWaveSources], sources.size());
  EXPECT_GT(out.counters[kVerticesExplored], 0u);
  EXPECT_GT(out.counters[kEdgesScanned], 0u);
  EXPECT_GT(out.counters[kLevelsTopDown] + out.counters[kLevelsBottomUp],
            0u);
}

// ---------------------------------------------------------------------------
// Tracing layer
// ---------------------------------------------------------------------------

#if defined(OPTIBFS_TELEMETRY)

TEST(TraceRing, WraparoundKeepsLatestAndAccountsDrops) {
  telemetry::TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push({/*start_ns=*/i, /*dur_ns=*/1, /*arg=*/i,
               telemetry::kEvLevel, /*instant=*/false});
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: the survivors are pushes 6..9 in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ns, 6 + i);
    EXPECT_EQ(events[i].arg, 6 + i);
  }
}

TEST(TraceRing, NoDropsBelowCapacity) {
  telemetry::TraceRing ring(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ring.push({i, 0, 0, telemetry::kEvLevel, true});
  }
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.events().size(), 8u);
}

TEST(FlightRecorder, SlotExhaustionDetachesGracefully) {
  telemetry::RecorderConfig config;
  config.max_slots = 1;
  telemetry::FlightRecorder rec(config);
  telemetry::ThreadTrace first, second;
  first.attach(rec, "one");
  second.attach(rec, "two");  // beyond max_slots
  EXPECT_TRUE(first.attached());
  EXPECT_FALSE(second.attached());
  second.span(telemetry::kEvLevel, second.now());  // must be a no-op
  EXPECT_EQ(rec.num_slots(), 1);
}

TEST(FlightRecorder, DroppedEventsFoldIntoCounters) {
  telemetry::RecorderConfig config;
  config.ring_capacity = 2;
  telemetry::FlightRecorder rec(config);
  telemetry::ThreadTrace trace;
  trace.attach(rec, "drops");
  for (int i = 0; i < 5; ++i) trace.instant(telemetry::kEvLevel);
  EXPECT_EQ(rec.counters()[kTraceEventsDropped], 3u);
}

TEST(FlightRecorder, ChromeTraceParsesBack) {
  const CsrGraph graph = CsrGraph::from_edges(gen::rmat(10, 16, 5));
  telemetry::FlightRecorder rec;
  BFSOptions options;
  options.num_threads = 4;
  options.direction_mode = DirectionMode::kHybrid;
  options.telemetry = &rec;
  auto engine = make_bfs("BFS_WSL_H", graph, options);
  BFSResult r;
  for (vid_t source = 0; source < 3; ++source) engine->run(source, r);

  const std::string path = ::testing::TempDir() + "optibfs_trace.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonValidator(text).valid());
  // Chrome trace-event envelope: named threads, complete events, the
  // run span, and the merged counter totals.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("BFS_WSL_H.t0"), std::string::npos);
  EXPECT_NE(text.find("\"bfs_run\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("vertices_explored"), std::string::npos);
}

TEST(FlightRecorder, RecorderAccumulatesAcrossRuns) {
  const CsrGraph graph = CsrGraph::from_edges(gen::erdos_renyi(500, 3000, 1));
  telemetry::FlightRecorder rec;
  BFSOptions options;
  options.num_threads = 2;
  options.telemetry = &rec;
  auto engine = make_bfs("BFS_CL", graph, options);
  BFSResult r;
  engine->run(0, r);
  const std::uint64_t after_one = rec.counters()[kVerticesExplored];
  EXPECT_EQ(after_one, r.vertices_explored);
  engine->run(0, r);
  EXPECT_GT(rec.counters()[kVerticesExplored], after_one);
}

TEST(FlightRecorder, ServiceEmitsQuerySpansAndCounters) {
  const auto graph = std::make_shared<const CsrGraph>(
      CsrGraph::from_edges(gen::rmat(9, 8, 3)));
  telemetry::FlightRecorder rec;
  ServiceConfig config;
  config.num_threads = 2;
  config.bfs.telemetry = &rec;
  {
    BfsService service(config);
    service.register_graph(graph);
    for (vid_t source = 0; source < 4; ++source) {
      ASSERT_TRUE(service.distance(source).ok());
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    UpdateBatch batch;
    batch.insert(0, 1);
    service.apply_updates(batch);
  }
  // The replica acquired its track and recorded per-query spans; the
  // mutator recorded the update on a track of its own.
  bool found_replica = false, found_mutator = false;
  for (int slot = 0; slot < rec.num_slots(); ++slot) {
    const telemetry::TraceRing* ring = rec.slot_ring(slot);
    if (rec.slot_name(slot) == "scaleout.replica0") {
      found_replica = true;
      ASSERT_NE(ring, nullptr);
      std::uint64_t waits = 0, execs = 0, dispatches = 0;
      for (const telemetry::TraceEvent& ev : ring->events()) {
        if (ev.name == telemetry::kEvQueueWait) ++waits;
        if (ev.name == telemetry::kEvExecute) ++execs;
        if (ev.name == telemetry::kEvBatchDispatch) ++dispatches;
      }
      EXPECT_EQ(waits, 4u);
      EXPECT_EQ(execs, 4u);
      EXPECT_GT(dispatches, 0u);
    }
    if (rec.slot_name(slot) == "scaleout.mutator") {
      found_mutator = true;
      ASSERT_NE(ring, nullptr);
      std::uint64_t applies = 0;
      for (const telemetry::TraceEvent& ev : ring->events()) {
        if (ev.name == telemetry::kEvApplyBatch) ++applies;
      }
      EXPECT_EQ(applies, 1u);
    }
  }
  EXPECT_TRUE(found_replica);
  EXPECT_TRUE(found_mutator);
}

#else  // !OPTIBFS_TELEMETRY

TEST(FlightRecorderStub, EverythingIsANoOp) {
  telemetry::FlightRecorder rec;
  EXPECT_EQ(rec.acquire_slot("x"), -1);
  EXPECT_EQ(rec.num_slots(), 0);
  EXPECT_FALSE(rec.write_chrome_trace("/tmp/never_written.json"));
  EXPECT_EQ(rec.counters_json(), "{}");

  telemetry::ThreadTrace trace;
  trace.attach(rec, "x");
  EXPECT_FALSE(trace.attached());
  EXPECT_EQ(trace.now(), 0u);
  trace.span(telemetry::kEvLevel, 0);
  trace.instant(telemetry::kEvLevel);
}

TEST(FlightRecorderStub, EnginesStillFillCounters) {
  // The counter layer is independent of the tracing build flag: result
  // snapshots must be populated even with tracing compiled out.
  const CsrGraph graph = CsrGraph::from_edges(gen::erdos_renyi(500, 3000, 1));
  BFSOptions options;
  options.num_threads = 4;
  auto engine = make_bfs("BFS_WSL", graph, options);
  BFSResult r;
  engine->run(0, r);
  EXPECT_EQ(r.counters[kVerticesExplored], r.vertices_explored);
  EXPECT_GT(r.counters[kEdgesScanned], 0u);
}

#endif  // OPTIBFS_TELEMETRY

}  // namespace
}  // namespace optibfs
